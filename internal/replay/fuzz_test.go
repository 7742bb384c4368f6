package replay

import (
	"os"
	"path/filepath"
	"testing"

	"esd/internal/apps"
	"esd/internal/mir"
	"esd/internal/trace"
)

// fuzzSteps bounds each fuzzed playback. The golden executions take at
// most 874 instructions.
const fuzzSteps = 10_000

// FuzzDecodeExecution feeds arbitrary bytes through trace.Decode, as
// esdplay reads the execution file a user hands it. Whatever decodes is
// played by a strict and a happens-before Player, each bounded to
// fuzzSteps instructions, over the bundled app the file names (listing1
// when it names none), and rendered by String and Fingerprint. Every
// input must end in an error or a state, never a panic or a hang. The
// determinism goldens' execution files seed the corpus.
func FuzzDecodeExecution(f *testing.F) {
	progs := map[string]*mir.Program{}
	for _, a := range apps.All() {
		prog, err := a.Program()
		if err != nil {
			f.Fatal(err)
		}
		progs[prog.Name] = prog
	}
	seeds, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.exec.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no golden execution files (%v)", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ex, err := trace.Decode(data)
		if err != nil {
			return
		}
		prog := progs[ex.Program]
		if prog == nil {
			prog = progs["listing1.c"]
		}
		for _, mode := range []Mode{Strict, HappensBefore} {
			p, err := NewPlayer(prog, ex, mode)
			if err != nil {
				t.Fatal(err)
			}
			p.Run(fuzzSteps)
		}
		_ = ex.String()
		_ = ex.Fingerprint()
	})
}
