package race

import (
	"testing"

	"esd/internal/lang"
	"esd/internal/mir"
	"esd/internal/solver"
	"esd/internal/symex"
	"esd/internal/usersite"
)

// runWithDetector runs src concretely over several schedule seeds, one
// detector per engine (object IDs are engine-local), and merges the
// flagged sites.
func runWithDetector(t *testing.T, src string, in *usersite.Inputs, seeds int) *Detector {
	t.Helper()
	prog := lang.MustCompile("t.c", src)
	merged := NewDetector()
	for seed := int64(0); seed < int64(seeds); seed++ {
		d := NewDetector()
		eng := symex.New(prog, solver.New())
		eng.Inputs = in
		eng.Race = d
		st, err := eng.InitialState()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(st, 500_000); err != nil {
			t.Fatal(err)
		}
		for l := range d.flagged {
			merged.flagged[l] = true
		}
	}
	return merged
}

func TestDetectsUnprotectedSharedCounter(t *testing.T) {
	d := runWithDetector(t, `
int counter;
int worker(int n) {
	for (int i = 0; i < 3; i++) {
		counter = counter + 1;   // no lock: racy
	}
	return 0;
}
int main() {
	int t1 = thread_create(worker, 0);
	int t2 = thread_create(worker, 0);
	thread_join(t1);
	thread_join(t2);
	return counter;
}`, &usersite.Inputs{}, 3)
	if len(d.FlaggedSites()) == 0 {
		t.Fatal("unprotected counter race not detected: no sites flagged")
	}
}

func TestNoFalsePositiveWithConsistentLocking(t *testing.T) {
	d := runWithDetector(t, `
int counter;
int m;
int worker(int n) {
	for (int i = 0; i < 3; i++) {
		lock(&m);
		counter = counter + 1;
		unlock(&m);
	}
	return 0;
}
int main() {
	int t1 = thread_create(worker, 0);
	int t2 = thread_create(worker, 0);
	thread_join(t1);
	thread_join(t2);
	return counter;
}`, &usersite.Inputs{}, 3)
	if s := d.FlaggedSites(); len(s) != 0 {
		t.Fatalf("false positive on consistently locked counter: flagged %v", s)
	}
}

func TestReadSharingIsNotARace(t *testing.T) {
	d := runWithDetector(t, `
int table[4];
int sum;
int m;
int reader(int n) {
	int s = 0;
	for (int i = 0; i < 4; i++) {
		s = s + table[i];       // read-only sharing
	}
	lock(&m);
	sum = sum + s;
	unlock(&m);
	return 0;
}
int main() {
	for (int i = 0; i < 4; i++) { table[i] = i; }
	int t1 = thread_create(reader, 0);
	int t2 = thread_create(reader, 0);
	thread_join(t1);
	thread_join(t2);
	return sum;
}`, &usersite.Inputs{}, 3)
	if s := d.FlaggedSites(); len(s) != 0 {
		t.Fatalf("false positive on read-only table: flagged %v", s)
	}
}

func TestExclusivePhaseNoReport(t *testing.T) {
	d := runWithDetector(t, `
int g;
int main() {
	for (int i = 0; i < 5; i++) { g = g + i; }   // single-threaded
	return g;
}`, &usersite.Inputs{}, 1)
	if s := d.FlaggedSites(); len(s) != 0 {
		t.Fatalf("single-threaded access reported as race: flagged %v", s)
	}
}

func TestFlaggedSitesAreStableAndSorted(t *testing.T) {
	d := NewDetector()
	locA := mir.Loc{Fn: "b", Block: 1, Index: 0}
	locB := mir.Loc{Fn: "a", Block: 0, Index: 2}
	d.flagged[locA] = true
	d.flagged[locB] = true
	s := d.FlaggedSites()
	if len(s) != 2 || s[0] != locB || s[1] != locA {
		t.Fatalf("FlaggedSites = %v", s)
	}
	if !d.IsFlagged(locA) || d.IsFlagged(mir.Loc{Fn: "c"}) {
		t.Fatal("IsFlagged broken")
	}
}
