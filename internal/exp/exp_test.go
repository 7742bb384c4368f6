package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// quick is a config small enough for CI while still exercising every code
// path of the harness.
func quick() Config {
	return Config{Timeout: 60 * time.Second, Seed: 1, MaxBPFExp: 4}
}

func TestTable1AllFound(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes all 8 Table-1 bugs; skipped with -short")
	}
	rows, err := Table1(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("Table 1 has %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if !r.ESD.Found {
			t.Errorf("%s: ESD did not find the bug (%.1fs)", r.System, r.ESD.Duration.Seconds())
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	for _, want := range []string{"sqlite", "hang", "ghttpd", "crash"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("printed table missing %q", want)
		}
	}
}

func TestFigure3SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("BPF synthesis sweep; skipped with -short")
	}
	rows, err := Figure3(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("MaxBPFExp=4 should yield one row, got %d", len(rows))
	}
	if !rows[0].ESD.Found {
		t.Error("ESD failed on the smallest BPF config")
	}
	if rows[0].KLOC <= 0 {
		t.Error("missing KLOC metric")
	}
	var buf bytes.Buffer
	PrintFigure3(&buf, rows)
	PrintFigure4(&buf, rows)
	if !strings.Contains(buf.String(), "Figure 3") || !strings.Contains(buf.String(), "Figure 4") {
		t.Error("figure rendering broken")
	}
}

func TestAblationRuns(t *testing.T) {
	rows, err := Ablation(context.Background(), "listing1", quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("ablation rows = %d, want 6", len(rows))
	}
	if !rows[0].Outcome.Found {
		t.Error("full ESD must find listing1")
	}
	var buf bytes.Buffer
	PrintAblation(&buf, "listing1", rows)
	if !strings.Contains(buf.String(), "no proximity") {
		t.Error("ablation rendering broken")
	}
}

func TestStressFindsNothing(t *testing.T) {
	rows, err := Stress(context.Background(), 30, quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Reproduced != 0 {
			t.Errorf("%s: stress reproduced the bug %d/%d times — gates too weak", r.App, r.Reproduced, r.Runs)
		}
	}
	var buf bytes.Buffer
	PrintStress(&buf, rows)
	if buf.Len() == 0 {
		t.Error("stress rendering broken")
	}
}

func TestUnknownAblationApp(t *testing.T) {
	if _, err := Ablation(context.Background(), "nope", quick()); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestBanner(t *testing.T) {
	if !strings.Contains(Banner(quick()), "timeout") {
		t.Fatal("banner broken")
	}
}

// TestOutcomeString checks that the tables tell a run that found the bug
// from one the budget stopped and from one whose frontier ran dry.
func TestOutcomeString(t *testing.T) {
	for _, c := range []struct {
		o    Outcome
		want string
	}{
		{Outcome{Found: true, Status: "found", Duration: 40 * time.Millisecond}, "40ms"},
		{Outcome{Found: true, Status: "found", Duration: 2770 * time.Millisecond}, "2.77s"},
		{Outcome{Status: "timeout", Duration: 11770 * time.Millisecond}, ">12s (timeout)"},
		{Outcome{Status: "incomplete", Duration: 2390 * time.Millisecond}, "2.39s (incomplete)"},
		{Outcome{Status: "exhausted", Duration: 13 * time.Millisecond}, "13ms (exhausted)"},
	} {
		if got := c.o.String(); got != c.want {
			t.Errorf("%+v renders %q, want %q", c.o, got, c.want)
		}
	}
}
