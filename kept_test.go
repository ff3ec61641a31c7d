package repro

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// The tests in this file pin the rule that a cold request keeps what it
// just computed: the profile a training run collected and the trace
// Record returned serve as the cache's object entries, and only bytes a
// cache tier returned are decoded. That is sound only if the kept
// objects are indistinguishable from the decode of their own bytes.

// dupLocalsSrc declares a local array named a twice in sibling blocks
// of main; the one load site in get reads the first three times and the
// second once.
const dupLocalsSrc = `
int get(int *p) { return *p; }
int main() {
	int s = 0;
	{ int a[4]; a[0] = 1; s = s + get(&a[0]); s = s + get(&a[0]); s = s + get(&a[0]); }
	{ int a[4]; a[0] = 2; s = s + get(&a[0]); }
	print(s);
	return 0;
}`

// TestCollectedProfileEqualsDecode checks, for every workload at both
// inputs and for a program with same-named locals, that the profile a
// training run collects deep-equals the decode of its serialization
// against the frontend master, which is what profileCtx would
// otherwise hand out.
func TestCollectedProfileEqualsDecode(t *testing.T) {
	ctx := context.Background()
	type input struct {
		name string
		src  string
		args []int64
	}
	inputs := []input{{"duplocals", dupLocalsSrc, nil}}
	for _, w := range workloads.All() {
		inputs = append(inputs, input{w.Name + "/train", w.Src, w.ProfileArgs}, input{w.Name + "/ref", w.Src, w.RefArgs})
	}
	for _, in := range inputs {
		prof, data, err := collectProfile(ctx, in.src, Config{ProfileArgs: in.args})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		master, err := frontendMaster(ctx, in.src)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := profile.Unmarshal(master, data)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if !reflect.DeepEqual(prof, dec) {
			t.Errorf("%s: collected profile differs from the decode of its bytes\ncollected %+v\ndecoded   %+v", in.name, prof, dec)
		}
	}
}

// TestProfileKeepsSameNamedLocalsApart pins the injective LOC encoding:
// the two arrays named a stay two LOCs with their own counts, the bytes
// are the same on every collection, and the kept profile is the one
// profileCtx serves.
func TestProfileKeepsSameNamedLocalsApart(t *testing.T) {
	ctx := context.Background()
	defer ResetCaches()
	var first []byte
	for i := 0; i < 50; i++ {
		ResetCaches()
		data, err := CollectProfileCtx(ctx, dupLocalsSrc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = data
		} else if !bytes.Equal(data, first) {
			t.Fatalf("collection %d serialized differently:\n%s\nvs\n%s", i, data, first)
		}
	}
	ResetCaches()
	prof, err := profileCtx(ctx, dupLocalsSrc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var counts []uint64
	for _, set := range prof.LoadLocs {
		for l, n := range set {
			if l.Kind == profile.LocLocal {
				counts = append(counts, n)
			}
		}
	}
	if len(counts) != 2 || counts[0]+counts[1] != 4 || counts[0]*counts[1] != 3 {
		t.Errorf("load site LOC counts = %v, want two locals counted 3 and 1", counts)
	}
	master, err := frontendMaster(ctx, dupLocalsSrc)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := profile.Unmarshal(master, first)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prof, dec) {
		t.Errorf("served profile differs from the decode of its bytes\nserved  %+v\ndecoded %+v", prof, dec)
	}
}

// keptTraceConfigs are machine models that exercise every replay path:
// the serial event walk at several ALAT sizes and the pipelined
// scoreboard walk.
func keptTraceConfigs() []machine.Config {
	var cfgs []machine.Config
	for _, pipelined := range []bool{false, true} {
		for _, alat := range []int{2, 8, 32} {
			cfg := machine.Defaults()
			cfg.Pipelined = pipelined
			cfg.ALATSize = alat
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// TestKeptTraceReplaysLikeDecoded checks, for every workload, that the
// trace traceFor keeps from its own recording replays (Replay and
// ReplayBatch, per-function counters included) exactly like the decode
// of its serialization.
func TestKeptTraceReplaysLikeDecoded(t *testing.T) {
	ctx := context.Background()
	defer ResetCaches()
	cfgs := keptTraceConfigs()
	perFunc := 0
	for _, w := range workloads.All() {
		ResetCaches()
		c, err := CompileCtx(ctx, w.Src, Config{Spec: SpecProfile, ProfileArgs: w.ProfileArgs})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		kept, err := c.traceFor(ctx, w.RefArgs, cfgs[0])
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		dec, err := machine.UnmarshalTrace(kept.Marshal())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, cfg := range cfgs {
			a, errA := machine.Replay(c.Code, kept, cfg, nil)
			b, errB := machine.Replay(c.Code, dec, cfg, nil)
			if errA != nil || errB != nil {
				t.Fatalf("%s: replay: %v / %v", w.Name, errA, errB)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s %+v: kept trace replays to\n%+v\ndecoded trace to\n%+v", w.Name, cfg, a, b)
			}
		}
		a, errA := machine.ReplayBatch(c.Code, kept, cfgs)
		b, errB := machine.ReplayBatch(c.Code, dec, cfgs)
		if errA != nil || errB != nil {
			t.Fatalf("%s: batch replay: %v / %v", w.Name, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: kept and decoded traces batch-replay differently", w.Name)
		}
		if len(a[0].PerFunc) != 0 {
			perFunc++
		}
	}
	if perFunc == 0 {
		t.Error("no workload replays with per-function counters")
	}
}
