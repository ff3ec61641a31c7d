package machine

import (
	"errors"
	"reflect"
	"testing"
)

// TestReplayBatchMatchesReplay is the machine-level differential test
// for the batched timing engine: for every program in the replay zoo,
// ReplayBatch over a grid must agree field-for-field with per-config
// Replay and with direct Run, regardless of how the batch mixes serial
// and pipelined points or duplicates configs. Duplicates and configs that differ only in
// fields the scoreboard never reads (store and fence latency) share
// one lane of the walk; sharing must not perturb any result.
func TestReplayBatchMatchesReplay(t *testing.T) {
	sweep := replaySweep()
	grids := map[string][]Config{
		"sweep": sweep,
		// a duplicated pipelined config
		"sweep+dup": append(replaySweep(), Config{Pipelined: true}, Config{Pipelined: true}),
		// every config twice, the copies interleaved
		"doubled": func() []Config {
			var g []Config
			for _, cfg := range sweep {
				g = append(g, cfg, cfg)
			}
			return g
		}(),
		// lanes that collapse: equal after normalization, or equal in
		// everything the pipelined clock depends on
		"collapsing": {
			{Pipelined: true},
			{Pipelined: true, ALATSize: 32, IntLoadLat: 2},
			{Pipelined: true, StoreLat: 9},
			{Pipelined: true, FenceLat: 30},
			{Pipelined: true, ALATSize: 2},
			{Pipelined: true, ALATSize: 2, StoreLat: 3, FenceLat: Free},
			{StoreLat: 9},
		},
	}
	for name, tc := range replayPrograms() {
		tr, err := Record(tc.p, tc.args, Config{})
		if err != nil {
			t.Fatalf("%s: record: %v", name, err)
		}
		for gname, cfgs := range grids {
			batch, err := ReplayBatch(tc.p, tr, cfgs)
			if err != nil {
				t.Fatalf("%s/%s: batch: %v", name, gname, err)
			}
			if len(batch) != len(cfgs) {
				t.Fatalf("%s/%s: %d results for %d configs", name, gname, len(batch), len(cfgs))
			}
			for i, cfg := range cfgs {
				single, err := Replay(tc.p, tr, cfg, nil)
				if err != nil {
					t.Fatalf("%s/%s %+v: replay: %v", name, gname, cfg, err)
				}
				direct, err := Run(tc.p, tc.args, cfg, nil)
				if err != nil {
					t.Fatalf("%s/%s %+v: run: %v", name, gname, cfg, err)
				}
				if !reflect.DeepEqual(single, batch[i]) || !reflect.DeepEqual(direct, batch[i]) {
					t.Errorf("%s/%s %+v:\ndirect %+v\nreplay %+v\nbatch  %+v", name, gname, cfg, direct, single, batch[i])
				}
			}
		}
	}
}

// TestReplayBatchAllocsIndependentOfCalls pins that the walk keeps its
// scoreboards on one reused stack: allocations per ReplayBatch on a
// call-heavy program do not grow with the number of dynamic calls.
func TestReplayBatchAllocsIndependentOfCalls(t *testing.T) {
	// main calls leaf(i) n times; leaf does a little arithmetic
	p := &Program{
		Funcs: map[string]*FuncCode{
			"main": {Name: "main", NumRegs: 6, Instrs: []Instr{
				{Op: OpMovI, Rd: 0, Imm: 0},
				{Op: OpMovI, Rd: 1, Imm: 0},
				{Op: OpArg, Rd: 1, Rs: 1}, // n
				{Op: OpMovI, Rd: 2, Imm: 1},
				{Op: OpSub, Rd: 3, Rs: 0, Rt: 1}, // 4 L: i-n
				{Op: OpBeqz, Rs: 3, Target: 9},
				{Op: OpCall, Rd: 4, Fn: "leaf", ArgRegs: []int{0}},
				{Op: OpAdd, Rd: 0, Rs: 0, Rt: 2},
				{Op: OpBr, Target: 4},
				{Op: OpRet, Rs: 4}, // 9
			}},
			"leaf": {Name: "leaf", NumRegs: 3, NumParams: 1, FrameSize: 4, Instrs: []Instr{
				{Op: OpMul, Rd: 1, Rs: 0, Rt: 0},
				{Op: OpAdd, Rd: 2, Rs: 1, Rt: 0},
				{Op: OpRet, Rs: 2},
			}},
		},
		GlobalInit: map[int]uint64{},
	}
	cfgs := []Config{{}, {Pipelined: true}, {Pipelined: true, IntMulLat: 7}, {Pipelined: true, CallOverhead: 5}}
	allocs := func(n int64) float64 {
		tr, err := Record(p, []int64{n}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Frames != n+1 {
			t.Fatalf("recorded %d activations, want %d", tr.Frames, n+1)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := ReplayBatch(p, tr, cfgs); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(10), allocs(5000)
	if many > few {
		t.Errorf("allocations grow with dynamic calls: %v per batch at 10 calls, %v at 5000", few, many)
	}
}

// TestReplayBatchFaultParity pins the batch's error contract: a config
// with tightened limits faults with exactly the single-replay error, a
// layout mismatch anywhere in the batch is refused with
// ErrTraceMismatch, and an empty batch is a no-op.
func TestReplayBatchFaultParity(t *testing.T) {
	tc := replayPrograms()["fib"]
	tr, err := Record(tc.p, tc.args, Config{})
	if err != nil {
		t.Fatal(err)
	}

	small := Config{MaxSteps: 50}
	_, singleErr := Replay(tc.p, tr, small, nil)
	_, batchErr := ReplayBatch(tc.p, tr, []Config{{}, small})
	if singleErr == nil || batchErr == nil {
		t.Fatalf("step limit should fault: single=%v batch=%v", singleErr, batchErr)
	}
	if singleErr.Error() != batchErr.Error() {
		t.Errorf("step-limit errors differ: single %q, batch %q", singleErr, batchErr)
	}

	if _, err := ReplayBatch(tc.p, tr, []Config{{}, {StackSlots: 64}}); !errors.Is(err, ErrTraceMismatch) {
		t.Errorf("layout mismatch not refused: %v", err)
	}

	res, err := ReplayBatch(tc.p, tr, nil)
	if err != nil || len(res) != 0 {
		t.Errorf("empty batch: %v, %d results", err, len(res))
	}
}

// TestReplayRejectsHeaderContradiction pins the walk's own cutoffs: a
// trace whose events outlast its recorded step count or depth, or which
// completes inside a limit its header says the run exceeded, is
// reported as corrupt rather than walked on or faulted like a real
// limit.
func TestReplayRejectsHeaderContradiction(t *testing.T) {
	tc := replayPrograms()["fib"]
	clean, err := Record(tc.p, tc.args, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		mutate func(tr *Trace)
		cfg    Config
	}{
		"steps short": {func(tr *Trace) { tr.Steps-- }, Config{Pipelined: true}},
		"depth short": {func(tr *Trace) { tr.MaxDepth-- }, Config{Pipelined: true}},
		// the walk completes within MaxSteps, which the header says the
		// run exceeded
		"steps inflated": {func(tr *Trace) { tr.Steps++ }, Config{MaxSteps: clean.Steps}},
	} {
		tr, err := Record(tc.p, tc.args, Config{})
		if err != nil {
			t.Fatal(err)
		}
		c.mutate(tr)
		if _, err := Replay(tc.p, tr, c.cfg, nil); !errors.Is(err, errTraceLimits) {
			t.Errorf("%s: got %v, want the corrupt-trace error", name, err)
		}
	}
}
