package race

import (
	"sort"

	"esd/internal/mir"
	"esd/internal/symex"
)

// Detector state is global across execution states (see Detector): flagged
// sites become preemption points for every state explored after them, so a
// resumed search must see exactly the detection state the checkpointed
// search had accumulated — a fresh detector would offer different
// preemption points and diverge from the uninterrupted run.

// CellRecord is one memory cell's serialized Eraser lockset state.
type CellRecord struct {
	Obj   int   `json:"obj"`
	Off   int64 `json:"off"`
	Phase int   `json:"phase"`
	Owner int   `json:"owner"`
	// HasLockset distinguishes a present-but-empty lockset from an absent
	// one: intersect treats nil as "uninitialized, adopt the held set" and
	// an empty map as "no common locks", so conflating them on restore
	// would resurrect candidate locks and suppress race reports.
	HasLockset bool             `json:"has_lockset,omitempty"`
	Lockset    []symex.MutexKey `json:"lockset,omitempty"`
	LastLoc    mir.Loc          `json:"last_loc"`
	LastTid    int              `json:"last_tid"`
	Reported   bool             `json:"reported,omitempty"`
}

// DetectorState is a Detector's serializable snapshot.
type DetectorState struct {
	Cells   []CellRecord `json:"cells,omitempty"`
	Flagged []mir.Loc    `json:"flagged,omitempty"`
}

// Snapshot captures the detector's full state in deterministic order
// (cells sorted by (obj, off), flagged sites in FlaggedSites order).
func (d *Detector) Snapshot() *DetectorState {
	if d == nil {
		return nil
	}
	st := &DetectorState{Flagged: d.FlaggedSites()}
	keys := make([]cellKey, 0, len(d.cells))
	for k := range d.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Obj != keys[j].Obj {
			return keys[i].Obj < keys[j].Obj
		}
		return keys[i].Off < keys[j].Off
	})
	for _, k := range keys {
		c := d.cells[k]
		rec := CellRecord{
			Obj: k.Obj, Off: k.Off,
			Phase: int(c.phase), Owner: c.owner,
			LastLoc: c.lastLoc, LastTid: c.lastTid, Reported: c.reported,
		}
		if c.lockset != nil {
			rec.HasLockset = true
			for mk := range c.lockset {
				rec.Lockset = append(rec.Lockset, mk)
			}
			sort.Slice(rec.Lockset, func(i, j int) bool {
				if rec.Lockset[i].Obj != rec.Lockset[j].Obj {
					return rec.Lockset[i].Obj < rec.Lockset[j].Obj
				}
				return rec.Lockset[i].Off < rec.Lockset[j].Off
			})
		}
		st.Cells = append(st.Cells, rec)
	}
	return st
}

// Restore overwrites the detector's state with a snapshot.
func (d *Detector) Restore(st *DetectorState) {
	if d == nil || st == nil {
		return
	}
	d.cells = make(map[cellKey]*cellState, len(st.Cells))
	for _, rec := range st.Cells {
		c := &cellState{
			phase: cellPhase(rec.Phase), owner: rec.Owner,
			lastLoc: rec.LastLoc, lastTid: rec.LastTid, reported: rec.Reported,
		}
		if rec.HasLockset {
			c.lockset = make(map[symex.MutexKey]bool, len(rec.Lockset))
			for _, mk := range rec.Lockset {
				c.lockset[mk] = true
			}
		}
		d.cells[cellKey{Obj: rec.Obj, Off: rec.Off}] = c
	}
	d.flagged = make(map[mir.Loc]bool, len(st.Flagged))
	for _, loc := range st.Flagged {
		d.flagged[loc] = true
	}
}
