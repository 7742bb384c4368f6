package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"esd"
)

// span is one timed interval of a request, recorded from the benchmark's
// own files: around its calls into the program, and between the engine's
// OnProgress phase events. Spans of one request share Req; Parent is the
// span that caused this one (0 for a request's root span).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Req    int     `json:"req"`
	Unit   int     `json:"unit"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the run started
	End    float64 `json:"end_s"`
}

// tracer keeps a traced run's spans in memory until the run writes them
// out. A nil *tracer records nothing, which is how untraced units run.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	next  int
	unit  int
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// newID reserves a span ID, so children that finish first can name their
// parent.
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under an ID from newID.
func (t *tracer) record(id, parent, req int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Unit: t.unit, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
}

// add records a finished span under a fresh ID and returns the ID.
func (t *tracer) add(parent, req int, name string, start, end time.Time) int {
	id := t.newID()
	t.record(id, parent, req, name, start, end)
	return id
}

func (t *tracer) setUnit(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.unit = n
	t.mu.Unlock()
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	return s
}

// uncoveredShares returns, for each request span, the share of its wall
// time that none of its direct child spans covers.
func (t *tracer) uncoveredShares() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	var out []float64
	for _, root := range t.spans {
		if root.Name != "request" || root.End <= root.Start {
			continue
		}
		kids := children[root.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := 0.0, root.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, root.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, (root.End-root.Start-covered)/(root.End-root.Start))
	}
	return out
}

// write saves the spans as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// phaseSpans turns the engine's OnProgress phase events into spans under
// a synthesis span: analyze→search is the static plan, search→solve the
// search (or search→return for a preempted or failed run), and
// solve→done the path concretization.
type phaseSpans struct {
	tr       *tracer
	parent   int
	req      int
	started  bool
	cur      esd.Phase
	curStart time.Time
	// resumed marks a call that continues a checkpoint: its
	// analyze→search interval also restores the search, so it is recorded
	// as search.resume instead of search.plan.
	resumed bool
	// analyze holds the analyze→search interval of this call (0 if the
	// call never reached the search phase).
	analyze time.Duration
}

var phaseSpanNames = map[esd.Phase]string{
	esd.PhaseAnalyze: "search.plan",
	esd.PhaseSearch:  "search.search",
	esd.PhaseSolve:   "trace.concretize",
}

func (p *phaseSpans) onProgress(ev esd.ProgressEvent) {
	if p.started && ev.Phase == p.cur {
		return // periodic snapshot within the same phase
	}
	p.close(ev.Time)
	p.started, p.cur, p.curStart = true, ev.Phase, ev.Time
}

// close ends the open phase span at t.
func (p *phaseSpans) close(t time.Time) {
	if !p.started {
		return
	}
	if p.cur == esd.PhaseAnalyze {
		p.analyze = t.Sub(p.curStart)
	}
	name := phaseSpanNames[p.cur]
	if p.cur == esd.PhaseAnalyze && p.resumed {
		name = "search.resume"
	}
	if name != "" {
		p.tr.add(p.parent, p.req, name, p.curStart, t)
	}
	p.started = false
}
