package main

import (
	"bytes"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// counters is one snapshot of the process-wide counters.
type counters struct {
	wall       time.Time
	cpu        time.Duration // user + sys, all threads
	allocBytes uint64
	allocObjs  uint64
	gcCPU      float64
	gcCycles   uint64
}

// readCounters snapshots the process-wide counters read around every
// timed unit. All of them come from the kernel or the Go runtime, not from
// the program under test.
func readCounters() counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return counters{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		gcCycles:   s[3].Value.Uint64(),
	}
}

// usage is the difference between two snapshots, plus the unit's peak
// resident set.
type usage struct {
	wall, cpu  time.Duration
	allocBytes uint64
	allocObjs  uint64
	gcCPU      float64
	gcCycles   uint64
	peakRSS    int64
}

func (c counters) since(b counters) usage {
	return usage{
		wall:       c.wall.Sub(b.wall),
		cpu:        c.cpu - b.cpu,
		allocBytes: c.allocBytes - b.allocBytes,
		allocObjs:  c.allocObjs - b.allocObjs,
		gcCPU:      c.gcCPU - b.gcCPU,
		gcCycles:   c.gcCycles - b.gcCycles,
	}
}

// rssInterval is how often a unit samples the process's resident set.
const rssInterval = 5 * time.Millisecond

// rssSampler records the largest resident set seen while it runs.
type rssSampler struct {
	stop chan struct{}
	done chan int64
}

// sampleRSS starts sampling /proc/self/statm every rssInterval.
func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan int64, 1)}
	go func() {
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		peak := residentBytes()
		for {
			select {
			case <-s.stop:
				s.done <- max(peak, residentBytes())
				return
			case <-tick.C:
				peak = max(peak, residentBytes())
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the largest resident set it saw.
func (s *rssSampler) peak() int64 {
	close(s.stop)
	return <-s.done
}

// residentBytes reads the process's current resident set (0 if
// /proc/self/statm is unreadable).
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(data)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified; 0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
