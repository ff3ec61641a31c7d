package machine

import (
	"sort"
	"testing"
)

// FuzzUnmarshalTrace feeds arbitrary bytes to the trace decoder, which
// specd runs on cache entries fetched from peers. Whatever decodes must
// then replay on every program of the replay zoo, serial and pipelined
// at two ALAT sizes, to a result or an error: never a panic. The seed
// corpus under testdata/fuzz holds marshalled traces of that zoo and
// checkCountMismatch, a trace whose check class counts disagree with
// its event stream (it used to crash the per-capacity ALAT walk).
func FuzzUnmarshalTrace(f *testing.F) {
	progs := replayPrograms()
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	cfgs := []Config{
		{ALATSize: 2},
		{ALATSize: 2, Pipelined: true},
		{ALATSize: 32},
		{ALATSize: 32, Pipelined: true},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := UnmarshalTrace(data)
		if err != nil {
			return
		}
		for _, name := range names {
			p := progs[name].p
			if res, err := ReplayBatch(p, tr, cfgs); err == nil && len(res) != len(cfgs) {
				t.Fatalf("%s: %d results for %d configs", name, len(res), len(cfgs))
			}
			if res, err := Replay(p, tr, Config{Pipelined: true}, nil); err == nil && res == nil {
				t.Fatalf("%s: nil result without an error", name)
			}
		}
	})
}
