package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the repository's layers that CPU time is charged to, in
// report order. "esd" is the root package; "runtime" takes every sample
// with no frame from this repository (GC workers, the scheduler, idle
// network polling); "other" takes repository packages outside this list
// (report, race, usersite, bpf, apps, pcache) and the benchmark itself.
var modules = []string{
	"esd", "lang", "mir", "cfa", "dist", "search", "symex", "sched",
	"solver", "expr", "trace", "replay", "service", "jobs", "telemetry",
	"runtime", "other",
}

// moduleOf maps a profile function name to its repository module, or ""
// for a frame outside the repository.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "esd/internal/"):
		pkg := fn[len("esd/internal/"):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, m := range modules {
			if m == pkg && m != "runtime" && m != "other" {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(fn, "esd."):
		return "esd"
	case strings.HasPrefix(fn, "esd/perfbench."), strings.HasPrefix(fn, "main."):
		return "other"
	}
	return ""
}

// attributeCPU charges every sample of a gzipped CPU profile to the
// innermost frame from this repository (inlined frames included), or to
// "runtime" when the stack has none. It returns CPU seconds per module;
// they sum to the profile's total.
func attributeCPU(gz []byte) (map[string]float64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if st == "cpu/nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := map[string]float64{}
	for _, m := range modules {
		out[m] = 0
	}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: short sample")
		}
		mod := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if m := moduleOf(p.funcNames[fn]); m != "" {
					mod = m
					break stack
				}
			}
		}
		out[mod] += float64(s.values[vi]) / 1e9
	}
	return out, nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	sampleTypes []string // "type/unit" per value column
	samples     []sample
	locFuncs    map[uint64][]uint64 // location → function IDs, innermost first
	funcNames   map[uint64]string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// decodeProfile parses the gzipped protocol-buffer profile that
// runtime/pprof writes (profile.proto), keeping only sample types,
// samples, locations and function names.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		typeIdx   [][2]int64
		fnNameIdx = map[uint64]int64{}
	)
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case 2: // sample
			var s sample
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line: function_id = 1
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnNameIdx[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", errors.New("profile: string index out of range")
		}
		return strs[i], nil
	}
	for _, t := range typeIdx {
		typ, err := str(t[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(t[1])
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, typ+"/"+unit)
	}
	for id, i := range fnNameIdx {
		if p.funcNames[id], err = str(i); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// walk calls fn for each field of a protocol-buffer message: v carries a
// varint field's value (b is then nil) and b a length-delimited field's
// bytes (non-nil, possibly empty). Fixed-width fields are skipped.
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated varint field in either encoding: one value
// (v, b == nil) or a packed run of values (b).
func varints(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
