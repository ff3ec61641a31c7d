package machine_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/source"
)

// The memory-model tests: the reference interpreter, the VM and trace
// replay share one address space (internal/addrspace), so every program
// must see the same addresses, values and faults in all three.

// frontend parses and lowers src to unoptimized IR.
func frontend(t *testing.T, src string) *ir.Program {
	t.Helper()
	f, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := source.Lower(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

// build returns src as unoptimized IR and as VM code, lowered from
// separate frontend runs so codegen cannot disturb the reference IR.
func build(t *testing.T, src string) (*ir.Program, *machine.Program) {
	t.Helper()
	code, err := codegen.LowerWorkers(frontend(t, src), 0)
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	return frontend(t, src), code
}

// agree runs src in the interpreter, the VM and record + replay, and
// checks all three return the same value and output.
func agree(t *testing.T, src string) (ret int64, out string) {
	t.Helper()
	ref, code := build(t, src)
	want, err := interp.Run(ref, interp.Options{})
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	got, err := machine.Run(code, nil, machine.Config{}, nil)
	if err != nil {
		t.Fatalf("machine.Run: %v", err)
	}
	tr, err := machine.Record(code, nil, machine.Config{})
	if err != nil {
		t.Fatalf("machine.Record: %v", err)
	}
	rep, err := machine.Replay(code, tr, machine.Config{Pipelined: true}, nil)
	if err != nil {
		t.Fatalf("machine.Replay: %v", err)
	}
	direct, err := machine.Run(code, nil, machine.Config{Pipelined: true}, nil)
	if err != nil {
		t.Fatalf("machine.Run (pipelined): %v", err)
	}
	if got.Ret != want.Ret || got.Output != want.Output {
		t.Errorf("machine.Run = %d %q, interp = %d %q", got.Ret, got.Output, want.Ret, want.Output)
	}
	if rep.Ret != want.Ret || rep.Output != want.Output || rep.Counters != direct.Counters {
		t.Errorf("Replay = %d %q %+v, want %d %q %+v", rep.Ret, rep.Output, rep.Counters, want.Ret, want.Output, direct.Counters)
	}
	return want.Ret, want.Output
}

// TestOutOfBoundsHeapAccessFaults: a heap access one slot past, or far
// past, the end of the last allocation faults in every engine.
func TestOutOfBoundsHeapAccessFaults(t *testing.T) {
	for _, c := range []struct{ name, body, want string }{
		{"load one past", "return p[2];", "load from invalid address"},
		{"load far past", "return p[100];", "load from invalid address"},
		{"store one past", "p[2] = 1; return 0;", "store to invalid address"},
		{"store far past", "p[100] = 1; return 0;", "store to invalid address"},
	} {
		ref, code := build(t, "int main() { int *p = (int*)malloc(2); p[1] = 5; "+c.body+" }")
		if _, err := interp.Run(ref, interp.Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: interp.Run err = %v, want %q", c.name, err, c.want)
		}
		if _, err := machine.Run(code, nil, machine.Config{}, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: machine.Run err = %v, want %q", c.name, err, c.want)
		}
		if _, err := machine.Record(code, nil, machine.Config{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: machine.Record err = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestStaleFramePointer: a pointer to a returned frame's local still
// reads that slot — first the callee's last value, then whatever the
// next frame to reuse the slot wrote there.
func TestStaleFramePointer(t *testing.T) {
	_, out := agree(t, `
int *leak() { int x; x = 42; return &x; }
int reuse() { int y; int *q = &y; *q = 7; return *q; }
int main() {
	int *p = leak();
	print(*p);
	reuse();
	print(*p);
	return *p;
}`)
	if out != "42\n7\n" {
		t.Errorf("stale reads = %q, want \"42\\n7\\n\"", out)
	}
}

// TestHeapAllocationsAgree: one allocation larger than any fixed growth
// step, and many small ones, read back identically in every engine.
func TestHeapAllocationsAgree(t *testing.T) {
	ret, _ := agree(t, `
int main() {
	int *big = (int*)malloc(10000);
	int i = 0;
	while (i < 10000) { big[i] = i; i = i + 7; }
	int **cells = (int**)malloc(3000);
	i = 0;
	while (i < 3000) {
		int *c = (int*)malloc(3);
		c[0] = i; c[2] = i * 2;
		cells[i] = c;
		i = i + 1;
	}
	int sum = big[9996] + big[9999];
	i = 0;
	while (i < 3000) { int *c = cells[i]; sum = sum + c[0] + c[1] + c[2]; i = i + 1; }
	print(sum);
	return sum;
}`)
	if want := int64(9996 + 3*(2999*3000/2)); ret != want {
		t.Errorf("sum = %d, want %d", ret, want)
	}
}

// TestStackOverflowDepth pins the call depth at which a fixed-size frame
// exhausts the stack region, in the interpreter and the VM alike: each
// activation holds a 100-slot array, so 1<<20 stack slots fit 10485
// activations of main and f, and the call that would start activation
// 10486 faults. MaxCallDepth is raised so the stack, not the depth
// limit, is what stops the descent.
func TestStackOverflowDepth(t *testing.T) {
	ref, code := build(t, `
int f(int n) {
	int a[100];
	a[0] = n;
	print(n);
	return f(n + 1) + a[0];
}
int main() { int pad[100]; pad[0] = 0; return f(1) + pad[0]; }`)
	for name, run := range map[string]func(out *strings.Builder) error{
		"interp": func(out *strings.Builder) error {
			_, err := interp.Run(ref, interp.Options{Out: out, MaxCallDepth: 1 << 20})
			return err
		},
		"machine": func(out *strings.Builder) error {
			_, err := machine.Run(code, nil, machine.Config{MaxCallDepth: 1 << 20}, out)
			return err
		},
	} {
		var out strings.Builder
		if err := run(&out); err == nil || !strings.Contains(err.Error(), "stack overflow in f") {
			t.Fatalf("%s: err = %v, want a stack overflow in f", name, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if last := lines[len(lines)-1]; last != "10484" {
			t.Errorf("%s: deepest activation of f = %s, want 10484", name, last)
		}
	}
}

// TestRunAllocatesOnlyWhatItTouches: neither a run nor a recording of a
// trivial program pays for the 1<<20-slot stack reservation.
func TestRunAllocatesOnlyWhatItTouches(t *testing.T) {
	_, code := build(t, `int g; int main() { g = 1; return g; }`)
	const runs = 20
	for name, run := range map[string]func() error{
		"Run": func() error {
			_, err := machine.Run(code, nil, machine.Config{}, nil)
			return err
		},
		"Record": func() error {
			_, err := machine.Record(code, nil, machine.Config{})
			return err
		},
	} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 256<<10 {
			t.Errorf("one %s allocates %d bytes, want under 256 KiB", name, per)
		}
	}
}
