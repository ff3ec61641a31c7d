package repro_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// fingerprintText is the text Fingerprint is defined to hash: the
// global-segment header ("globsize", then one "init" line per
// initialised slot in address order) followed by the disassembly.
func fingerprintText(p *machine.Program) string {
	text := fmt.Sprintf("globsize %d\n", p.GlobSize)
	addrs := make([]int, 0, len(p.GlobalInit))
	for a := range p.GlobalInit {
		addrs = append(addrs, a)
	}
	sort.Ints(addrs)
	for _, a := range addrs {
		text += fmt.Sprintf("init %d %d\n", a, p.GlobalInit[a])
	}
	return text + p.String()
}

// TestFingerprintHashesProgramText pins the streamed fingerprint to its
// definition: for every bundled workload, under every speculation mode
// and hardened, Fingerprint equals sha256 of the header plus String().
func TestFingerprintHashesProgramText(t *testing.T) {
	ctx := context.Background()
	cfgs := []repro.Config{
		{Spec: repro.SpecOff},
		{Spec: repro.SpecProfile},
		{Spec: repro.SpecCost, Schedule: true},
		{Spec: repro.SpecProfile, Harden: "fence"},
	}
	for _, w := range workloads.All() {
		for _, cfg := range cfgs {
			cfg.ProfileArgs = w.ProfileArgs
			c, err := repro.CompileCtx(ctx, w.Src, cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if got, want := c.Code.Fingerprint(), sha256.Sum256([]byte(fingerprintText(c.Code))); got != want {
				t.Errorf("%s %+v: Fingerprint %x, sha256 of the program text %x", w.Name, cfg, got, want)
			}
		}
	}
}

// TestWarmCompilesShareCachedState runs concurrent warm compiles and
// reference runs of one workload. Every compilation must share the one
// cached reference master and the one decoded profile, and produce the
// same code. Under -race this also checks that those shared values are
// only ever read.
func TestWarmCompilesShareCachedState(t *testing.T) {
	ctx := context.Background()
	w, ok := workloads.ByName("equake")
	if !ok {
		t.Fatal("equake not registered")
	}
	cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs, VerifyPasses: true, Harden: "hoist"}
	first, err := repro.CompileCtx(ctx, w.Src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Profile == nil {
		t.Fatal("compile carries no profile")
	}
	want, err := first.RunReferenceCtx(ctx, w.RefArgs)
	if err != nil {
		t.Fatal(err)
	}
	fp := first.Code.Fingerprint()

	const n = 6
	comps := make([]*repro.Compilation, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := repro.CompileCtx(ctx, w.Src, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := c.RunReferenceCtx(ctx, w.RefArgs)
			if err != nil {
				errs[i] = err
				return
			}
			if res.Output != want.Output || res.Ret != want.Ret {
				errs[i] = fmt.Errorf("reference run printed %q, want %q", res.Output, want.Output)
				return
			}
			comps[i] = c
		}(i)
	}
	wg.Wait()
	for i, c := range comps {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if c.Ref != first.Ref {
			t.Errorf("goroutine %d: reference IR is not the shared cache master", i)
		}
		if c.Profile != first.Profile {
			t.Errorf("goroutine %d: profile is not the shared decoded profile", i)
		}
		if c.Prog == first.Prog {
			t.Errorf("goroutine %d: optimized IR is shared; it must be a private clone", i)
		}
		if got := c.Code.Fingerprint(); got != fp {
			t.Errorf("goroutine %d: code fingerprint %x, want %x", i, got, fp)
		}
	}
}
