package machine

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// replayPrograms builds a small zoo of programs exercising every
// trace-relevant behavior: branches, calls/recursion, advanced loads
// with hits/misses/evictions, speculative loads with deferred faults,
// and plain arithmetic.
func replayPrograms() map[string]struct {
	p    *Program
	args []int64
} {
	// loop with ALAT traffic: ld.a / conflicting stores / ld.c inside a
	// counted loop, enough iterations to exercise capacity at small sizes
	alatLoop := buildProg([]Instr{
		{Op: OpMovI, Rd: 0, Imm: 0},  // i = 0
		{Op: OpMovI, Rd: 1, Imm: 40}, // n
		{Op: OpMovI, Rd: 5, Imm: 0},  // acc
		{Op: OpMovI, Rd: 7, Imm: 1},
		{Op: OpSub, Rd: 2, Rs: 0, Rt: 1}, // 4 L: i-n
		{Op: OpBeqz, Rs: 2, Target: 15},  // exit
		{Op: OpMod, Rd: 3, Rs: 0, Rt: 1}, // slot = i % n (all < glob)
		{Op: OpLEA, Rd: 4, Imm: 0},
		{Op: OpAdd, Rd: 4, Rs: 4, Rt: 3}, // &glob[i%n]
		{Op: OpLdA, Rd: 6, Rs: 4},        // advanced load
		{Op: OpSt, Rd: 4, Rs: 0},         // conflicting store (invalidates)
		{Op: OpLdC, Rd: 6, Rs: 4},        // check: always misses
		{Op: OpAdd, Rd: 5, Rs: 5, Rt: 6}, // acc += value
		{Op: OpAdd, Rd: 0, Rs: 0, Rt: 7}, // i++
		{Op: OpBr, Target: 4},
		{Op: OpRet, Rs: 5}, // 15
	}, 8, 64)

	// recursion with a print: deep call trees, per-frame activations
	fib := &Program{
		Funcs: map[string]*FuncCode{
			"main": {Name: "main", NumRegs: 3, Instrs: []Instr{
				{Op: OpMovI, Rd: 0, Imm: 12},
				{Op: OpCall, Rd: 1, Fn: "fib", ArgRegs: []int{0}},
				{Op: OpPrint, ArgRegs: []int{1}, FloatRs: []bool{false}},
				{Op: OpRet, Rs: 1},
			}},
			// the parameter arrives in r0 (regs[0..NumParams-1])
			"fib": {Name: "fib", NumRegs: 6, NumParams: 1, FrameSize: 2, Instrs: []Instr{
				{Op: OpMovI, Rd: 5, Imm: 1},
				{Op: OpSub, Rd: 1, Rs: 0, Rt: 5}, // n-1
				{Op: OpBnez, Rs: 1, Target: 4},
				{Op: OpRet, Rs: 0},                                // fib(1) = 1
				{Op: OpBnez, Rs: 0, Target: 6},                    // 4
				{Op: OpRet, Rs: 0},                                // fib(0) = 0
				{Op: OpCall, Rd: 3, Fn: "fib", ArgRegs: []int{1}}, // 6: fib(n-1)
				{Op: OpMovI, Rd: 5, Imm: 2},
				{Op: OpSub, Rd: 2, Rs: 0, Rt: 5}, // n-2
				{Op: OpCall, Rd: 4, Fn: "fib", ArgRegs: []int{2}},
				{Op: OpAdd, Rd: 1, Rs: 3, Rt: 4},
				{Op: OpRet, Rs: 1},
			}},
		},
		GlobSize:   4,
		GlobalInit: map[int]uint64{},
	}

	// control speculation with deferred faults (ld.s through an invalid
	// address on most iterations) plus speculative-advanced loads
	spec := buildProg([]Instr{
		{Op: OpMovI, Rd: 0, Imm: 0},
		{Op: OpMovI, Rd: 1, Imm: 20},
		{Op: OpMovI, Rd: 5, Imm: 0},
		{Op: OpMovI, Rd: 7, Imm: 1},
		{Op: OpSub, Rd: 2, Rs: 0, Rt: 1}, // 4 L:
		{Op: OpBeqz, Rs: 2, Target: 15},
		{Op: OpAnd, Rd: 3, Rs: 0, Rt: 7}, // i & 1
		{Op: OpMovI, Rd: 4, Imm: -1},     // invalid addr
		{Op: OpBnez, Rs: 3, Target: 10},  // odd i: keep -1 (defer)
		{Op: OpLEA, Rd: 4, Imm: 2},       // even i: valid addr
		{Op: OpLdS, Rd: 6, Rs: 4},        // 10: may defer (NaT)
		{Op: OpLdSA, Rd: 6, Rs: 4},       // speculative-advanced variant
		{Op: OpAdd, Rd: 5, Rs: 5, Rt: 6},
		{Op: OpAdd, Rd: 0, Rs: 0, Rt: 7}, // i++
		{Op: OpBr, Target: 4},
		{Op: OpRet, Rs: 5}, // 15
	}, 8, 8)

	return map[string]struct {
		p    *Program
		args []int64
	}{
		"alatLoop": {alatLoop, nil},
		"fib":      {fib, nil},
		"spec":     {spec, nil},
	}
}

// replaySweep is the grid of Configs the differential test runs: both
// timing models, ALAT capacity extremes, latency extremes.
func replaySweep() []Config {
	return []Config{
		{},
		{Pipelined: true},
		{ALATSize: 2},
		{ALATSize: 2, Pipelined: true},
		{ALATSize: 256},
		{IntLoadLat: 8, FPLoadLat: 24, CheckMissPen: 16},
		{IntLoadLat: 8, FPLoadLat: 24, CheckMissPen: 16, Pipelined: true},
		{CheckHitLat: Free, CheckMissPen: Free},
		{IntMulLat: 1, IntDivLat: 40, CallOverhead: 7, Pipelined: true},
	}
}

// TestReplayMatchesDirectExecution is the machine-level differential
// test: for each program and each sweep Config, Replay over a recorded
// trace must reproduce direct Run bit-for-bit — Ret, Output, and every
// Counters field.
func TestReplayMatchesDirectExecution(t *testing.T) {
	for name, tc := range replayPrograms() {
		tr, err := Record(tc.p, tc.args, Config{})
		if err != nil {
			t.Fatalf("%s: record: %v", name, err)
		}
		for _, cfg := range replaySweep() {
			direct, err := Run(tc.p, tc.args, cfg, nil)
			if err != nil {
				t.Fatalf("%s %+v: direct: %v", name, cfg, err)
			}
			replayed, err := Replay(tc.p, tr, cfg, nil)
			if err != nil {
				t.Fatalf("%s %+v: replay: %v", name, cfg, err)
			}
			if !reflect.DeepEqual(direct, replayed) {
				t.Errorf("%s %+v:\ndirect  %+v\nreplay  %+v", name, cfg, direct, replayed)
			}
		}
	}
}

// TestReplayMarshalRoundTrip runs the same differential through the
// serialized form (the cache spill path).
func TestReplayMarshalRoundTrip(t *testing.T) {
	for name, tc := range replayPrograms() {
		tr, err := Record(tc.p, tc.args, Config{})
		if err != nil {
			t.Fatalf("%s: record: %v", name, err)
		}
		tr2, err := UnmarshalTrace(tr.Marshal())
		if err != nil {
			t.Fatalf("%s: roundtrip: %v", name, err)
		}
		if tr2.Steps != tr.Steps || tr2.Ret != tr.Ret || tr2.Output != tr.Output ||
			tr2.StackSlots != tr.StackSlots || tr2.MaxDepth != tr.MaxDepth ||
			tr2.Events() != tr.Events() {
			t.Fatalf("%s: metadata mismatch after roundtrip", name)
		}
		cfg := Config{ALATSize: 2, Pipelined: true}
		direct, err := Run(tc.p, tc.args, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := Replay(tc.p, tr2, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct, replayed) {
			t.Errorf("%s: roundtripped replay diverges:\ndirect %+v\nreplay %+v", name, direct, replayed)
		}
	}
}

// TestRecordedTraceHoldsNoFuncCode pins that a finished trace pins no
// program: the compile cache keeps recorded traces as object entries,
// and a trace holding a *FuncCode would keep its whole compiled program
// alive for as long as the entry lives, as would a function name that
// shares its bytes with the program (names are slices of the source).
func TestRecordedTraceHoldsNoFuncCode(t *testing.T) {
	codeType := reflect.TypeOf((*FuncCode)(nil))
	for name, tc := range replayPrograms() {
		tr, err := Record(tc.p, tc.args, Config{})
		if err != nil {
			t.Fatalf("%s: record: %v", name, err)
		}
		if path, ok := findType(reflect.ValueOf(tr), codeType, "trace"); ok {
			t.Errorf("%s: recorded trace holds a *FuncCode at %s", name, path)
		}
		for _, fn := range tr.FnNames {
			if f := tc.p.Funcs[fn]; f != nil && unsafe.StringData(f.Name) == unsafe.StringData(fn) {
				t.Errorf("%s: trace function name %q shares the program's bytes", name, fn)
			}
		}
	}
}

// findType walks v's reachable non-nil fields, slices and maps and
// returns the path of the first value of type want.
func findType(v reflect.Value, want reflect.Type, path string) (string, bool) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return "", false
		}
		if v.Type() == want {
			return path, true
		}
		return findType(v.Elem(), want, path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p, ok := findType(v.Field(i), want, path+"."+v.Type().Field(i).Name); ok {
				return p, true
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p, ok := findType(v.Index(i), want, path+"[]"); ok {
				return p, true
			}
		}
	case reflect.Map:
		it := v.MapRange()
		for it.Next() {
			if p, ok := findType(it.Key(), want, path+"{key}"); ok {
				return p, true
			}
			if p, ok := findType(it.Value(), want, path+"{}"); ok {
				return p, true
			}
		}
	}
	return "", false
}

func TestUnmarshalTraceRejectsCorruptInput(t *testing.T) {
	if _, err := UnmarshalTrace([]byte("not a trace")); err == nil {
		t.Error("bad magic accepted")
	}
	tc := replayPrograms()["fib"]
	tr, err := Record(tc.p, tc.args, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := tr.Marshal()
	if _, err := UnmarshalTrace(data[:len(data)/2]); err == nil {
		t.Error("truncated trace accepted")
	}

	// header values that disagree with the event streams or overflow
	// their fields; each used to decode and then crash or mislead replay
	tc = replayPrograms()["alatLoop"]
	corrupt := map[string]func(tr *Trace){
		"check counts zeroed": func(tr *Trace) { tr.counts[cCheckInt], tr.counts[cCheckFP] = 0, 0 },
		"check counts short":  func(tr *Trace) { tr.counts[cCheckInt]-- },
		"check counts long":   func(tr *Trace) { tr.counts[cCheckInt]++ },
		"check kinds swapped": func(tr *Trace) { tr.counts[cCheckInt], tr.counts[cCheckFP] = tr.counts[cCheckFP], tr.counts[cCheckInt] },
		"negative steps":      func(tr *Trace) { tr.Steps = -1 },
		"negative depth":      func(tr *Trace) { tr.MaxDepth = -1 },
		"negative frames":     func(tr *Trace) { tr.Frames = -1 },
		"negative slots":      func(tr *Trace) { tr.StackSlots = -1 },
		"negative class":      func(tr *Trace) { tr.counts[cMul] = -1 },
		"negative stat class": func(tr *Trace) { tr.counts[cAdv] = -1 },
		"negative bit count":  func(tr *Trace) { tr.bits.n = -1 },
		"classes past steps":  func(tr *Trace) { tr.counts[cMul] = tr.Steps - tr.counts[cMul] },
		"class past steps":    func(tr *Trace) { tr.counts[cSpec] = tr.Steps + 1 },
	}
	for name, mutate := range corrupt {
		tr, err := Record(tc.p, tc.args, Config{})
		if err != nil {
			t.Fatal(err)
		}
		mutate(tr)
		if _, err := UnmarshalTrace(tr.Marshal()); err == nil {
			t.Errorf("%s: corrupt trace accepted", name)
		}
	}
	if _, err := UnmarshalTrace(tr.Marshal()); err != nil {
		t.Errorf("intact trace rejected: %v", err)
	}
}

// TestReplayFaultParity pins the resource-limit contract: replay under
// a tighter limit faults with exactly the error direct execution
// produces, and a layout mismatch is refused up front.
func TestReplayFaultParity(t *testing.T) {
	tc := replayPrograms()["fib"]
	tr, err := Record(tc.p, tc.args, Config{})
	if err != nil {
		t.Fatal(err)
	}

	small := Config{MaxSteps: 50}
	_, directErr := Run(tc.p, tc.args, small, nil)
	_, replayErr := Replay(tc.p, tr, small, nil)
	if directErr == nil || replayErr == nil {
		t.Fatalf("step limit should fault: direct=%v replay=%v", directErr, replayErr)
	}
	if directErr.Error() != replayErr.Error() {
		t.Errorf("step-limit errors differ: direct %q, replay %q", directErr, replayErr)
	}

	shallow := Config{MaxCallDepth: 3}
	_, directErr = Run(tc.p, tc.args, shallow, nil)
	_, replayErr = Replay(tc.p, tr, shallow, nil)
	if directErr == nil || replayErr == nil {
		t.Fatalf("depth limit should fault: direct=%v replay=%v", directErr, replayErr)
	}
	if directErr.Error() != replayErr.Error() {
		t.Errorf("depth-limit errors differ: direct %q, replay %q", directErr, replayErr)
	}

	if _, err := Replay(tc.p, tr, Config{StackSlots: 64}, nil); !errors.Is(err, ErrTraceMismatch) {
		t.Errorf("layout mismatch not refused: %v", err)
	}
}

// TestReplayOutputWriter checks the out-writer convention matches Run's:
// with a writer the output goes there and Result.Output stays empty.
func TestReplayOutputWriter(t *testing.T) {
	tc := replayPrograms()["fib"]
	tr, err := Record(tc.p, tc.args, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var direct, replayed strings.Builder
	dres, err := Run(tc.p, tc.args, Config{}, &direct)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := Replay(tc.p, tr, Config{}, &replayed)
	if err != nil {
		t.Fatal(err)
	}
	if direct.String() != replayed.String() || direct.Len() == 0 {
		t.Errorf("writer output: direct %q, replay %q", direct.String(), replayed.String())
	}
	if dres.Output != "" || rres.Output != "" {
		t.Errorf("Result.Output must be empty with an explicit writer: %q %q", dres.Output, rres.Output)
	}
}
