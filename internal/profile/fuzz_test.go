package profile_test

import (
	"reflect"
	"testing"

	"repro/internal/alias"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/workloads"
)

// FuzzProfileUnmarshal feeds arbitrary bytes to the profile decoder,
// which reads profile JSON from request bodies and cache bytes from
// peers. Decoding must never panic, and whatever decodes must
// re-encode to bytes that decode to an equal profile. The input picks
// the workload program the bytes are decoded against; the corpus is
// seeded with every workload's profile at both of its inputs and with
// a version-1 profile.
func FuzzProfileUnmarshal(f *testing.F) {
	ws := workloads.All()
	progs := make([]*ir.Program, len(ws))
	for i, w := range ws {
		file, err := source.Parse(w.Src)
		if err != nil {
			f.Fatal(err)
		}
		prog, err := source.Lower(file)
		if err != nil {
			f.Fatal(err)
		}
		alias.RefineWorkers(prog, 1)
		progs[i] = prog
		for _, args := range [][]int64{w.ProfileArgs, w.RefArgs} {
			p := profile.New()
			if _, err := interp.Run(prog, interp.Options{CollectEdges: true, CollectAlias: true, Profile: p, Args: args}); err != nil {
				f.Fatal(err)
			}
			data, err := profile.Marshal(prog, p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), data)
		}
	}
	f.Add(uint8(0), []byte(`{"version":1,"blocks":{"main:B0":1},"edges":{"main:B0":[1,0]},"loads":{"5":["h:1/0","g:nosuch"]},"stores":{"6":["l:main:i"]},"callmod":{"2":["h:3/2"]}}`))
	f.Fuzz(func(t *testing.T, w uint8, data []byte) {
		prog := progs[int(w)%len(progs)]
		p, err := profile.Unmarshal(prog, data)
		if err != nil {
			return
		}
		again, err := profile.Marshal(prog, p)
		if err != nil {
			t.Fatalf("re-encoding a decoded profile: %v", err)
		}
		q, err := profile.Unmarshal(prog, again)
		if err != nil {
			t.Fatalf("decoding a re-encoded profile: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("profile changed across a re-encode\nfirst  %+v\nsecond %+v", p, q)
		}
	})
}
