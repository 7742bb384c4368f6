// Package race implements the Eraser-style dynamic lockset data-race
// detector ESD uses to place race preemption points (§4.2, after Savage et
// al. [34]).
//
// Each shared memory cell walks the Eraser state machine (virgin →
// exclusive → shared / shared-modified) and maintains a candidate lockset:
// the intersection of the locks held at every access. A shared-modified
// cell whose candidate lockset becomes empty is a potential harmful race;
// the detector flags both access sites, and the VM then treats those sites
// as preemption points for schedule synthesis. Because the detector runs
// under symbolic execution, it observes an arbitrary number of paths, not
// just the one a given workload exercises (the paper's coverage argument).
package race

import (
	"sort"

	"esd/internal/mir"
	"esd/internal/symex"
)

type cellKey struct {
	Obj int
	Off int64
}

type cellPhase int

const (
	virgin cellPhase = iota
	exclusive
	shared
	sharedModified
)

type cellState struct {
	phase    cellPhase
	owner    int // exclusive-phase thread
	lockset  map[symex.MutexKey]bool
	lastLoc  mir.Loc
	lastTid  int
	reported bool
}

// Detector implements symex.RaceDetector.
type Detector struct {
	// cells is keyed per memory cell. Detection state is global across
	// execution states (flagged sites accumulate monotonically, which only
	// adds preemption points — never unsoundness).
	cells   map[cellKey]*cellState
	flagged map[mir.Loc]bool
}

var _ symex.RaceDetector = (*Detector)(nil)

// NewDetector returns an empty detector.
func NewDetector() *Detector {
	return &Detector{cells: map[cellKey]*cellState{}, flagged: map[mir.Loc]bool{}}
}

// IsFlagged reports whether loc was flagged as a potential race site.
func (d *Detector) IsFlagged(loc mir.Loc) bool { return d.flagged[loc] }

// FlaggedSites returns all flagged sites in deterministic order.
func (d *Detector) FlaggedSites() []mir.Loc {
	out := make([]mir.Loc, 0, len(d.flagged))
	for l := range d.flagged {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Index < b.Index
	})
	return out
}

// Record observes one access (called by the VM before each load/store).
// A Detector instance is tied to one Engine: memory-object IDs are only
// unique within a single engine's state lineage.
func (d *Detector) Record(st *symex.State, tid int, obj int, off int64, write bool, loc mir.Loc, held []symex.MutexKey) {
	key := cellKey{obj, off}
	c := d.cells[key]
	if c == nil {
		c = &cellState{phase: virgin}
		d.cells[key] = c
	}
	// Quiescence refinement: when tid is the only live thread (e.g. main
	// after joining the workers), its accesses cannot race with anything
	// that follows — reset the cell to exclusive. This removes the classic
	// Eraser false positive on post-join reads.
	live := 0
	for _, t := range st.Threads {
		if t.Status != symex.ThreadExited {
			live++
		}
	}
	if live <= 1 {
		c.phase = exclusive
		c.owner = tid
		c.lockset = nil
		c.lastLoc = loc
		c.lastTid = tid
		return
	}
	heldSet := make(map[symex.MutexKey]bool, len(held))
	for _, h := range held {
		heldSet[h] = true
	}
	switch c.phase {
	case virgin:
		c.phase = exclusive
		c.owner = tid
		c.lockset = heldSet
	case exclusive:
		if tid == c.owner {
			break // still single-threaded for this cell
		}
		if write {
			c.phase = sharedModified
		} else {
			c.phase = shared
		}
		c.intersect(heldSet)
	case shared:
		if write {
			c.phase = sharedModified
		}
		c.intersect(heldSet)
	case sharedModified:
		c.intersect(heldSet)
	}
	if c.phase == sharedModified && len(c.lockset) == 0 && !c.reported {
		c.reported = true
		d.flagged[c.lastLoc] = true
		d.flagged[loc] = true
	}
	if tid != c.lastTid || c.lastLoc == (mir.Loc{}) {
		c.lastLoc = loc
		c.lastTid = tid
	}
}

func (c *cellState) intersect(held map[symex.MutexKey]bool) {
	if c.lockset == nil {
		c.lockset = held
		return
	}
	for k := range c.lockset {
		if !held[k] {
			delete(c.lockset, k)
		}
	}
}
