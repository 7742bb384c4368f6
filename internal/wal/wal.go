// Package wal keeps a store's records on disk as a snapshot plus a log:
//
//	<dir>/<snap> — the store's whole state at the last compaction
//	<dir>/<log>  — one record per line, appended since
//
// Both durable stores use it: the job store (internal/jobs) and the
// persistent solver-fact cache (internal/pcache). Each store encodes its
// own records and snapshot; this package only reads, appends, replays
// and compacts the two files, so both share one recovery rule: load the
// snapshot, then apply the log line by line up to its first line the
// store cannot decode. That line is a record torn by a crash mid-append,
// and nothing after it was ever acknowledged, so replay drops it and
// everything after it.
//
// Compaction writes the new snapshot to a temp file, fsyncs it, renames
// it over the old one and fsyncs the directory before it truncates the
// log. Every moment on disk therefore holds either (old snapshot, full
// log) or (new snapshot, empty-or-newer log), across a machine crash
// too: without the directory sync, the rename could be lost while the
// truncation survived.
package wal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// Log is one store's snapshot and log. It is not safe for concurrent
// use; its store serializes calls under its own lock.
type Log struct {
	dir, snapPath, logPath string
	sync                   bool

	f     *os.File // the log, open for appends; nil before Compact and after Close
	lines int
}

// Open opens the snapshot and log named snap and log in dir, creating
// dir if needed. If there is a snapshot, Open passes its bytes to load;
// an error from load fails Open. It then passes each log line, without
// its newline, to replay, and stops at the first line replay cannot
// decode (replay returns false).
//
// sync fixes whether Append fsyncs each line: a store that acknowledges
// a record to a client needs it on disk, a cache does not.
//
// The returned log takes no appends until the store calls Compact, since
// a line appended behind an undecodable one would never be replayed.
func Open(dir, snap, log string, sync bool, load func(snap []byte) error, replay func(line []byte) bool) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating store dir: %w", err)
	}
	l := &Log{dir: dir, snapPath: filepath.Join(dir, snap), logPath: filepath.Join(dir, log), sync: sync}
	data, err := os.ReadFile(l.snapPath)
	switch {
	case err == nil:
		if err := load(data); err != nil {
			return nil, fmt.Errorf("%s: %w", l.snapPath, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return nil, fmt.Errorf("reading snapshot: %w", err)
	}

	f, err := os.Open(l.logPath)
	if errors.Is(err, fs.ErrNotExist) {
		return l, nil
	}
	if err != nil {
		return nil, fmt.Errorf("opening log: %w", err)
	}
	defer f.Close()
	// A line is as long as its record: a parked job's checkpoint can run
	// to tens of MB, so lines are read whole, with no cap.
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("reading log: %w", err)
		}
		if len(line) == 0 {
			return l, nil
		}
		if !replay(bytes.TrimSuffix(line, []byte{'\n'})) {
			return l, nil
		}
		l.lines++
	}
}

// Lines reports how many lines the log holds: those appended since the
// last compaction, or those replayed by Open before the first.
func (l *Log) Lines() int { return l.lines }

// Append writes one line, adding its newline in line's spare capacity if
// it has any, and fsyncs it if the log was opened with sync.
func (l *Log) Append(line []byte) error {
	if l.f == nil {
		return errors.New("log is closed")
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("appending to log: %w", err)
	}
	if l.sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("syncing log: %w", err)
		}
	}
	l.lines++
	return nil
}

// Compact installs snap as the snapshot and starts an empty log (see the
// package comment for the order).
func (l *Log) Compact(snap []byte) error {
	tmp := l.snapPath + ".tmp"
	if err := writeSynced(tmp, snap); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, l.snapPath); err != nil {
		return fmt.Errorf("installing snapshot: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("syncing store dir: %w", err)
	}
	l.Close() // the new snapshot holds all the old log did
	f, err := os.OpenFile(l.logPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("resetting log: %w", err)
	}
	l.f, l.lines = f, 0
	return nil
}

// Close closes the log; Append fails afterwards.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
