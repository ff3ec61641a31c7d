package interp

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestRunAllocatesOnlyWhatItTouches pins on-demand backing: a trivial
// program must not pay for the 1<<20-slot stack reservation (8 MiB if
// allocated eagerly).
func TestRunAllocatesOnlyWhatItTouches(t *testing.T) {
	prog := compile(t, `int g; int main() { g = 1; return g; }`)
	const runs = 20
	if _, err := Run(prog, Options{}); err != nil { // warm any lazy state
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Run(prog, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 256<<10 {
		t.Errorf("one run allocates %d bytes, want under 256 KiB", per)
	}
}

// TestCtxCancelsRun: a non-terminating program stops promptly once its
// context expires, with an error that wraps the context's.
func TestCtxCancelsRun(t *testing.T) {
	prog := compile(t, `int main() { while (1) { } return 0; }`)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(prog, Options{Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled run returned after %v", d)
	}
}
