package lang_test

import (
	"testing"

	"esd/internal/apps"
	"esd/internal/cfa"
	"esd/internal/dist"
	"esd/internal/lang"
)

// FuzzCompile feeds arbitrary source through the compiler, which esdserve
// runs on untrusted request bodies. lang.Compile must return a program or
// an error, never panic, and a program it accepts must also get through
// the static phase every synthesis starts with: the call graph and the
// distance tables. The 17 bundled apps seed the corpus.
func FuzzCompile(f *testing.F) {
	for _, a := range apps.All() {
		f.Add(a.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.Compile("fuzz.c", src)
		if err != nil {
			return
		}
		dist.NewCalculatorWith(cfa.BuildCallGraph(prog))
	})
}
