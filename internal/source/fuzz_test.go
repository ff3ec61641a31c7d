package source

import (
	"testing"

	"repro/internal/workloads"
)

// FuzzFrontend feeds arbitrary text to the frontend: Parse followed by
// Lower must either succeed or return an error, never panic. specd
// compiles client-supplied MiniC, so a frontend panic is a server
// error where a 400 belongs. The committed corpus under
// testdata/fuzz/FuzzFrontend holds truncated-input crashers; the
// bundled workload sources are added as well-formed seeds.
func FuzzFrontend(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add(w.Src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		_, _ = Lower(file)
	})
}
