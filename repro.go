// Package repro is the public API of the speculative-compilation
// framework, a reproduction of Lin et al., "A Compiler Framework for
// Speculative Analysis and Optimizations" (PLDI 2003).
//
// The pipeline compiles MiniC source through alias analysis, alias/edge
// profiling, the speculative SSA form, speculative SSAPRE (partial
// redundancy elimination, register promotion, strength reduction), and
// code generation for an EPIC-style virtual machine with an ALAT, whose
// performance counters reproduce the paper's measurements.
//
// Typical use:
//
//	ctx := context.Background()
//	c, err := repro.CompileCtx(ctx, src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: []int64{100}})
//	res, err := c.RunCtx(ctx, []int64{1000})
//	fmt.Println(res.Output, res.Counters.LoadsRetired)
package repro

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/alias"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/specheck"
	"repro/internal/ssapre"
)

// SpecMode selects the data-speculation flag source.
type SpecMode int

const (
	// SpecOff disables data speculation (the paper's O3 baseline:
	// non-speculative PRE over type-based alias analysis).
	SpecOff SpecMode = iota
	// SpecProfile drives speculation from an alias-profiling run
	// (paper §3.2.1).
	SpecProfile
	// SpecHeuristic drives speculation from the three heuristic rules
	// (paper §3.2.2); no alias profile is needed.
	SpecHeuristic
	// SpecCost drives speculation from alias probabilities: a site's
	// weak updates stay ignorable only while the expected recovery cost
	// (p(alias) × check-miss latency) is below the expected savings
	// ((1−p) × cycles saved by promotion). Probabilities come from the
	// counted alias profile; the cost terms from Config.Machine; the
	// break-even point shifts with Config.SpecThreshold.
	SpecCost
)

func (m SpecMode) String() string {
	switch m {
	case SpecOff:
		return "off"
	case SpecProfile:
		return "profile"
	case SpecHeuristic:
		return "heuristic"
	case SpecCost:
		return "cost"
	}
	return "specmode?"
}

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (m SpecMode) coreMode() core.Mode {
	switch m {
	case SpecProfile:
		return core.ModeProfile
	case SpecHeuristic:
		return core.ModeHeuristic
	case SpecCost:
		return core.ModeCost
	}
	return core.ModeNone
}

// Config controls a compilation.
type Config struct {
	// Spec selects the data-speculation mode.
	Spec SpecMode
	// NoControlSpec disables profile-guided control speculation
	// (insertion at non-down-safe Φs), which is otherwise on whenever
	// the optimizer runs (it is part of the paper's baseline SSAPRE).
	NoControlSpec bool
	// OptimizeOff disables PRE entirely (unoptimized code, for limit
	// studies and debugging).
	OptimizeOff bool
	// NoArith restricts PRE to loads only (register promotion alone).
	NoArith bool
	// NoStrength disables the strength-reduction / LFTR client.
	NoStrength bool
	// NoTypeBasedAA disables type-based alias disambiguation (ablation;
	// the paper's baseline includes it).
	NoTypeBasedAA bool
	// SpecThreshold scales the recovery side of the SpecCost break-even
	// test: a site speculates while (1−p)·saved > threshold·p·recover.
	// 1 is the neutral cost model; larger values demand better odds
	// before speculating; <=0 means 1. Ignored outside SpecCost.
	SpecThreshold float64
	// ProfileArgs is the training input for the alias/edge profiling run
	// (used by SpecProfile and for edge profiles; when profiling fails
	// or is skipped, a static Ball-Larus-style estimate is used).
	ProfileArgs []int64
	// ProfileJSON, when non-empty, supplies a previously collected
	// profile (from CollectProfileCtx or `aliasprof -o`) instead of
	// running the training input at compile time — the paper's separate
	// profile-then-recompile feedback workflow.
	ProfileJSON []byte
	// Rounds overrides the number of PRE rounds (default 2).
	Rounds int
	// Schedule enables the latency-driven list scheduler (the
	// instruction-scheduling client of the paper's Fig. 3). Its effect
	// is visible under the pipelined VM timing model
	// (Machine.Pipelined).
	Schedule bool
	// Machine tunes the VM model; zero value uses machine.Defaults().
	Machine machine.Config
	// AggressivePromotion treats every chi as ignorable (no profile
	// consultation) — the paper's Fig. 12 "aggressive register
	// promotion" upper bound. Implies data speculation with empty
	// profiles.
	AggressivePromotion bool
	// Workers bounds the per-function parallelism of the pipeline
	// (alias refinement/annotation, SSAPRE, IR verification, scheduling
	// and code generation). 0 uses one worker per core; 1 reproduces the
	// fully serial pipeline bit-for-bit and is the determinism oracle
	// the parallel paths are tested against.
	Workers int
	// VerifyPasses runs the speculation-soundness checker
	// (internal/specheck) after every pipeline stage — alias annotation,
	// flag assignment, each SSAPRE round, out-of-SSA, scheduling and code
	// generation — attributing any violation to the stage that introduced
	// it. Compilation fails with a *specheck.Error on the first dirty
	// stage. Roughly doubles compile time; meant for CI, debugging and
	// the `-verify-passes` / speclint surfaces.
	VerifyPasses bool
	// Harden selects a speculative-leak mitigation policy ("fence" or
	// "hoist", see internal/harden) applied to the generated code after
	// codegen: every sink specheck's Layer 3 taint analysis reports — a
	// load/store address or branch condition fed by a
	// speculatively-loaded, not-yet-checked value — is closed by a
	// fence or a hoisted duplicate check, and Layer 3 is re-run to
	// prove zero residual leaks (a residual is a compile error). Empty
	// means no hardening. The mitigation changes generated code, so it
	// participates in trace fingerprints and cache keys automatically.
	Harden string `json:",omitempty"`
	// FnSpec overrides the speculation tier per function (keyed by
	// function name): the named function's chi/mu flags are assigned
	// under its own mode and threshold instead of the program-wide Spec
	// and SpecThreshold. This is the compile side of adaptive tiering —
	// the server demotes a mis-speculating function here without
	// touching the rest of the program. Flag assignment is a per-symbol
	// decision baked into the IR before the speculative walk runs, so
	// the override is sound under any profile-guided global Spec; under
	// SpecOff or SpecHeuristic the global walk mode ignores profile
	// flags and overrides have no effect. Functions absent from the map
	// compile at the program-wide tier.
	FnSpec map[string]FnSpec `json:",omitempty"`
}

// FnSpec is one function's speculation-tier override (see
// Config.FnSpec). The zero value means SpecOff: every update flagged,
// no data speculation in the function.
type FnSpec struct {
	// Spec is the function's flag-assignment mode.
	Spec SpecMode `json:",omitempty"`
	// SpecThreshold scales the recovery side of the function's
	// break-even test, exactly as Config.SpecThreshold does globally.
	// Ignored unless Spec is SpecCost; <=0 means 1.
	SpecThreshold float64 `json:",omitempty"`
}

// Compilation is a compiled program plus everything the experiments need.
type Compilation struct {
	Config  Config
	Source  string
	Prog    *ir.Program // optimized IR
	Ref     *ir.Program // unoptimized reference IR (fresh compile)
	Code    *machine.Program
	Stats   map[string]*ssapre.Stats
	Profile *profile.Profile
	Alias   *alias.Result
	// ProfileErr records a failed training run: the profiling
	// interpreter faulted on Config.ProfileArgs and the compilation fell
	// back to the static Ball-Larus estimate with no alias profile.
	// CompileCtx itself still succeeds (the fallback is well-defined),
	// but profile-guided measurements are meaningless under it, so the
	// experiments treat a non-nil ProfileErr as fatal.
	ProfileErr error
	// Harden reports what the leak-mitigation pass did (nil unless
	// Config.Harden was set): leaks found, fences inserted, checks
	// hoisted, and the residual count (always zero on success).
	Harden *harden.Report `json:",omitempty"`

	fpOnce sync.Once
	fp     [32]byte // lazily computed Code fingerprint for trace keying
}

// The compilation cache (internal/cache): the in-memory tier memoizes
// one pristine lowered program per source hash plus the serialized
// alias/edge profile per (source, options, training-args) key, and the
// optional on-disk tier (SetCacheDir) persists the profiles across
// processes. CompileCtx, CollectProfileCtx, Reference and
// ReuseLimitWorkersCtx all start from the same parse, and an experiment
// sweep re-compiles each workload under many config variants, so N
// variants pay for one parse and one profiling interpreter run instead
// of N of each. Masters in
// the cache are never mutated — every caller receives a deep ir.Clone —
// which is what makes sharing across concurrent compiles sound.
const compCacheCap = 512

var (
	compCache     = cache.New(compCacheCap)
	profilingRuns atomic.Uint64
)

// frontendCtx parses + lowers IR from source, memoized by source hash;
// the caller owns the returned clone outright.
func frontendCtx(ctx context.Context, src string) (*ir.Program, error) {
	key := cache.KeyOf([]byte("frontend"), []byte(src))
	v, err := compCache.GetObjectCtx(ctx, key, func() (any, error) {
		f, err := source.Parse(src)
		if err != nil {
			return nil, err
		}
		return source.Lower(f)
	})
	if err != nil {
		return nil, err
	}
	return ir.Clone(v.(*ir.Program)), nil
}

// profileCacheVersion stamps every profile cache key; bump it whenever
// the meaning of the computation changes (refinement, the interpreter's
// collection semantics, or the serialization), which invalidates stale
// persistent entries by construction.
const profileCacheVersion = 2

// profileKey is the content-addressed key of a profiling run: source
// text, the options that shape reference-site ids and set contents
// (refinement pipeline version, TBAA flag), and the training input.
func profileKey(src string, cfg Config) cache.Key {
	opts := fmt.Sprintf("v%d tbaa=%t", profileCacheVersion, !cfg.NoTypeBasedAA)
	args := make([]byte, 8*len(cfg.ProfileArgs))
	for i, a := range cfg.ProfileArgs {
		binary.LittleEndian.PutUint64(args[i*8:], uint64(a))
	}
	return cache.KeyOf([]byte("profile"), []byte(src), []byte(opts), args)
}

// profileDataCtx returns the serialized alias/edge profile for (src,
// options, training args), memoized in memory and — when a cache dir is
// set — persisted on disk. The computation is canonical: frontend, the
// same flow-sensitive refinement CompileCtx applies (so reference-site
// ids line up), one profiling interpreter run, profile.Marshal.
// CompileCtx, CollectProfileCtx and every experiment variant share it,
// so a sweep pays for one interpreter run per key no matter how many
// variants it compiles, and a warm-started process pays for none.
func profileDataCtx(ctx context.Context, src string, cfg Config) ([]byte, error) {
	return compCache.GetBytesCtx(ctx, profileKey(src, cfg), func() ([]byte, error) {
		profilingRuns.Add(1)
		prog, err := frontendCtx(ctx, src)
		if err != nil {
			return nil, err
		}
		alias.RefineWorkers(prog, cfg.Workers)
		prof := profile.New()
		if _, err := interp.Run(prog, interp.Options{
			CollectEdges: true, CollectAlias: true, Profile: prof, Args: cfg.ProfileArgs,
			Ctx: ctx,
		}); err != nil {
			return nil, err
		}
		return profile.Marshal(prog, prof)
	})
}

// ProfilingRuns counts the profiling interpreter runs actually executed
// (cache misses); sweeps assert "profile once" against its deltas.
func ProfilingRuns() uint64 { return profilingRuns.Load() }

// CacheCounters is a snapshot of the compilation cache's cumulative
// hit/miss/compute/evict counters (see internal/cache.Stats).
type CacheCounters struct {
	MemHits      uint64
	MemMisses    uint64
	DiskHits     uint64
	DiskMisses   uint64
	RemoteHits   uint64
	RemoteMisses uint64
	RemotePuts   uint64
	Computes     uint64
	Evictions    uint64
	Corrupt      uint64
}

func (s CacheCounters) String() string {
	return fmt.Sprintf("mem %d/%d hit/miss, disk %d/%d hit/miss, remote %d/%d hit/miss (%d puts), %d computes, %d evictions, %d corrupt",
		s.MemHits, s.MemMisses, s.DiskHits, s.DiskMisses, s.RemoteHits, s.RemoteMisses, s.RemotePuts, s.Computes, s.Evictions, s.Corrupt)
}

// CacheStats snapshots the compilation cache counters.
func CacheStats() CacheCounters {
	s := compCache.Stats()
	return CacheCounters{
		MemHits: s.MemHits, MemMisses: s.MemMisses,
		DiskHits: s.DiskHits, DiskMisses: s.DiskMisses,
		RemoteHits: s.RemoteHits, RemoteMisses: s.RemoteMisses, RemotePuts: s.RemotePuts,
		Computes: s.Computes, Evictions: s.Evictions, Corrupt: s.Corrupt,
	}
}

// SetCacheRemote installs (or, with nil, removes) the peer/remote tier
// of the compilation cache: byte entries — serialized profiles and
// recorded traces — missing from memory and disk are fetched from fleet
// peers before being computed, and computed entries are pushed to the
// key's owning peer, so a program profiled on any node is profiled once
// fleet-wide.
func SetCacheRemote(r cache.Remote) { compCache.SetRemote(r) }

// CachePeekBytes serves the peer side of the remote tier (specd's
// GET /cache/{key}): the completed byte entry for key from the memory
// or disk tier only — it never computes and never consults this
// process's own remote tier, so peer lookups cannot recurse.
func CachePeekBytes(key cache.Key) ([]byte, bool) { return compCache.PeekBytes(key) }

// CachePutBytes serves the peer side of remote-tier stores (specd's
// PUT /cache/{key}): the entry is installed in the memory tier and
// written through to disk. Existing entries win; values are
// content-addressed, so any copy is as good as the first.
func CachePutBytes(key cache.Key, data []byte) { compCache.PutBytes(key, data) }

// TraceCacheBytes reports the heap footprint of every decoded
// *machine.Trace resident in the in-memory cache tier, in bytes. The
// specd /metrics endpoint exposes it as the specd_trace_bytes gauge so
// operators can see what record-and-replay reuse costs in memory.
func TraceCacheBytes() int64 {
	return compCache.SumObjects(func(v any) int64 {
		if t, ok := v.(*machine.Trace); ok {
			return t.Bytes()
		}
		return 0
	})
}

// SetCacheDir enables the persistent on-disk cache tier under dir
// (serialized profiles survive the process; a later run warm-starts
// from them), or disables it when dir is empty. Corrupt or stale
// entries are discarded and recomputed, never surfaced as errors.
func SetCacheDir(dir string) error { return compCache.SetDir(dir) }

// SetCacheEnabled turns compilation-pipeline memoization off or back on
// (default on). With the cache off every CompileCtx re-parses and
// re-profiles from scratch — the oracle for cache-transparency tests.
func SetCacheEnabled(on bool) { compCache.SetEnabled(on) }

// ResetCaches drops the whole in-memory cache tier (parses and
// profiles); the persistent tier, if configured, stays. Tests and
// benchmarks use it to measure cold starts.
func ResetCaches() { compCache.Reset() }

// CompileCtx runs the full pipeline on MiniC source. The frontend and
// profiling cache lookups honor ctx (a caller waiting on another
// compile's in-flight work returns promptly), and the pipeline checks
// ctx at every phase boundary — refinement, profiling, SSAPRE, verification,
// scheduling, code generation — so a dropped client or an expired
// deadline stops the compilation at the next phase instead of running
// it to completion.
func CompileCtx(ctx context.Context, src string, cfg Config) (*Compilation, error) {
	// one frontend run (or cache hit) feeds both programs: the reference
	// IR stays pristine and the optimizer works on a detached clone
	ref, err := frontendCtx(ctx, src)
	if err != nil {
		return nil, err
	}
	prog := ir.Clone(ref)
	c := &Compilation{Config: cfg, Source: src, Prog: prog, Ref: ref}

	// verify surfaces specheck violations as a compile error; the
	// *specheck.Error stays reachable through errors.As for callers that
	// want the structured violation list (speclint, specd's counters).
	verify := func(vs []specheck.Violation) error {
		if err := specheck.AsError(vs); err != nil {
			return fmt.Errorf("repro: %w", err)
		}
		return nil
	}

	if !cfg.OptimizeOff {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// flow-sensitive refinement (paper Fig. 4): devirtualize
		// references whose address resolves to a single variable
		alias.RefineWorkers(prog, cfg.Workers)
		ar := alias.Analyze(prog, alias.Options{TypeBased: !cfg.NoTypeBasedAA})
		ar.AnnotateWorkers(prog, cfg.Workers)
		c.Alias = ar
		env := &specheck.Env{Alias: ar}
		if cfg.VerifyPasses {
			if err := verify(specheck.CheckAnnotated(prog, env, "alias-annotate")); err != nil {
				return nil, err
			}
		}

		var prof *profile.Profile
		if len(cfg.ProfileJSON) > 0 {
			p, err := profile.Unmarshal(prog, cfg.ProfileJSON)
			if err != nil {
				return nil, fmt.Errorf("repro: %w", err)
			}
			prof = p
			prof.ApplyEdges(prog)
			c.Profile = prof
		} else {
			// the training run is memoized: every variant of a sweep
			// that shares (source, options, training args) reuses one
			// interpreter run's serialized profile
			data, perr := profileDataCtx(ctx, src, cfg)
			if isCtxErr(perr) {
				// cancellation is not a failed training run; surface it
				return nil, perr
			}
			if perr == nil {
				p, err := profile.Unmarshal(prog, data)
				if err != nil {
					return nil, fmt.Errorf("repro: cached profile: %w", err)
				}
				prof = p
				prof.ApplyEdges(prog)
				c.Profile = prof
			} else {
				// the training input faulted: fall back to the static
				// estimate, but record the failure — silently degrading
				// would skew every profile-guided measurement
				c.ProfileErr = fmt.Errorf("repro: profiling run failed: %w", perr)
				profile.StaticEstimate(prog)
				prof = nil
			}
		}

		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mode := cfg.Spec.coreMode()
		flagProf := prof
		if cfg.AggressivePromotion {
			// ignore every alias: empty profile sets leave all chis weak
			mode = core.ModeProfile
			flagProf = profile.New()
		}
		pol := core.PolicyFor(cfg.Machine, cfg.SpecThreshold)
		var fnOv map[string]core.FnOverride
		if len(cfg.FnSpec) > 0 {
			fnOv = make(map[string]core.FnOverride, len(cfg.FnSpec))
			for name, fs := range cfg.FnSpec {
				fnOv[name] = core.FnOverride{
					Mode:   fs.Spec.coreMode(),
					Policy: core.PolicyFor(cfg.Machine, fs.SpecThreshold),
				}
			}
		}
		core.AssignFlagsTiered(prog, ar, flagProf, mode, pol, fnOv)
		env.Prof, env.Mode, env.Policy, env.FnOverrides = flagProf, mode, pol, fnOv
		if cfg.VerifyPasses {
			if err := verify(specheck.CheckAnnotated(prog, env, "assign-flags")); err != nil {
				return nil, err
			}
			if err := verify(specheck.CheckFlags(prog, env, "assign-flags")); err != nil {
				return nil, err
			}
		}

		var verifyHook func(fn *ir.Func, pass string, inSSA bool) error
		if cfg.VerifyPasses {
			verifyHook = func(fn *ir.Func, pass string, inSSA bool) error {
				if inSSA {
					return verify(specheck.CheckSSAFunc(fn, pass))
				}
				return verify(specheck.CheckPostSSA(fn, pass))
			}
		}
		controlSpec := !cfg.NoControlSpec
		stats, err := ssapre.Run(prog, ssapre.Options{
			DataSpec:    mode,
			ControlSpec: controlSpec,
			Rounds:      cfg.Rounds,
			Alias:       ar,
			NoArith:     cfg.NoArith,
			NoStrength:  cfg.NoStrength,
			Workers:     cfg.Workers,
			VerifyHook:  verifyHook,
		})
		if err != nil {
			return nil, err
		}
		c.Stats = stats
		if err := par.EachCtx(ctx, cfg.Workers, len(prog.Funcs), func(i int) error {
			if err := ir.Verify(prog.Funcs[i]); err != nil {
				return fmt.Errorf("repro: optimizer produced invalid IR: %w", err)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Schedule {
		var before specheck.MemOrder
		if cfg.VerifyPasses {
			before = specheck.SnapshotMemOrder(prog)
		}
		codegen.ScheduleWorkers(prog, cfg.Workers)
		if cfg.VerifyPasses {
			if err := verify(specheck.CheckSchedule(prog, before, "schedule")); err != nil {
				return nil, err
			}
		}
	}
	code, err := codegen.LowerWorkers(prog, cfg.Workers)
	if err != nil {
		return nil, err
	}
	if cfg.VerifyPasses {
		if err := verify(specheck.CheckMachine(code, "codegen")); err != nil {
			return nil, err
		}
	}
	if cfg.Harden != "" {
		pol, err := harden.ParsePolicy(cfg.Harden)
		if err != nil {
			return nil, fmt.Errorf("repro: %w", err)
		}
		rep, err := harden.Apply(code, pol)
		if err != nil {
			return nil, fmt.Errorf("repro: %w", err)
		}
		c.Harden = rep
		// prove zero residual leaks on every hardened build, verified
		// pipeline or not; a violation here is a mitigation bug
		if err := verify(specheck.CheckLeaks(code, "harden")); err != nil {
			return nil, err
		}
		if cfg.VerifyPasses {
			if err := verify(specheck.CheckMachine(code, "harden")); err != nil {
				return nil, err
			}
		}
	}
	c.Code = code
	return c, nil
}

// The machine-trace path: one functional machine.Record per (program
// fingerprint, args, resource limits) captures the architectural event
// stream, and every timing measurement becomes a cheap machine.Replay
// walk. Latencies, ALATSize and Pipelined are deliberately absent from
// the key — re-timing under them is exactly what replay is for, so a
// whole sensitivity sweep shares one recorded trace. Resource limits
// (MaxSteps, MaxCallDepth) and StackSlots are in the key because they
// change what the run does: a smaller limit faults, and the cache
// memoizes errors, so excluding them would poison larger-limit callers;
// StackSlots additionally shifts concrete addresses (Replay refuses a
// mismatch outright). Traces ride the same two-tier cache as profiles:
// the decoded *machine.Trace lives in the memory tier, its serialized
// form spills to the on-disk tier when SetCacheDir is active.

var traceDisabled atomic.Bool

// SetTraceEnabled turns the record-and-replay machine path off or back
// on (default on). With tracing off every RunCtx and EvaluateCtx
// executes the VM directly — the oracle the replay path is
// differentially tested against, and the `-no-trace` escape hatch.
func SetTraceEnabled(on bool) { traceDisabled.Store(!on) }

// TraceEnabled reports whether the record-and-replay path is active.
func TraceEnabled() bool { return !traceDisabled.Load() }

// traceCacheVersion stamps trace cache keys; bump it whenever the
// trace format or the recorded event set changes.
const traceCacheVersion = 4

// fingerprint returns the compiled program's content hash, computed
// once per Compilation.
func (c *Compilation) fingerprint() [32]byte {
	c.fpOnce.Do(func() { c.fp = c.Code.Fingerprint() })
	return c.fp
}

// traceFor returns the recorded architectural trace for (c.Code, args)
// under mcfg's memory layout and resource limits, recording it on the
// first request. A run that faults yields the same error direct
// execution would (memoized like any other cache entry — sound because
// the limits are part of the key).
func (c *Compilation) traceFor(ctx context.Context, args []int64, mcfg machine.Config) (*machine.Trace, error) {
	n := mcfg.Normalized()
	fp := c.fingerprint()
	argb := make([]byte, 8*len(args))
	for i, a := range args {
		binary.LittleEndian.PutUint64(argb[i*8:], uint64(a))
	}
	lim := fmt.Sprintf("v%d slots=%d steps=%d depth=%d",
		traceCacheVersion, n.StackSlots, n.MaxSteps, n.MaxCallDepth)
	key := cache.KeyOf([]byte("trace"), fp[:], argb, []byte(lim))
	v, err := compCache.GetObjectCtx(ctx, key, func() (any, error) {
		data, err := compCache.GetBytesCtx(ctx, cache.KeyOf([]byte("tracebytes"), fp[:], argb, []byte(lim)),
			func() ([]byte, error) {
				tr, err := machine.Record(c.Code, args, n)
				if err != nil {
					return nil, err
				}
				return tr.Marshal(), nil
			})
		if err != nil {
			return nil, err
		}
		return machine.UnmarshalTrace(data)
	})
	if err != nil {
		return nil, err
	}
	return v.(*machine.Trace), nil
}

// runMachine executes the compiled program under mcfg, through the
// record-and-replay path when enabled (with direct execution as the
// fallback), directly otherwise.
func (c *Compilation) runMachine(ctx context.Context, args []int64, mcfg machine.Config) (*machine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if TraceEnabled() {
		tr, err := c.traceFor(ctx, args, mcfg)
		if err != nil {
			// the recording run faulted: this is the same error direct
			// execution under these limits would produce
			return nil, err
		}
		res, err := machine.Replay(c.Code, tr, mcfg, nil)
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, machine.ErrTraceMismatch) {
			return nil, err
		}
		// layout mismatch (cannot happen via this key, but stay safe)
	}
	return machine.Run(c.Code, args, mcfg, nil)
}

// RunCtx executes the compiled program on the EPIC VM (via the trace
// replay path when enabled; see SetTraceEnabled). The trace-cache
// lookup honors ctx (a caller waiting on another run's in-flight
// recording returns promptly when cancelled) and a done ctx stops the
// run before it starts.
func (c *Compilation) RunCtx(ctx context.Context, args []int64) (*machine.Result, error) {
	return c.runMachine(ctx, args, c.Config.Machine)
}

// EvaluateCtx re-times the compiled program on args under every machine
// configuration in cfgs — the paper's §5 sensitivity-style sweeps. With
// tracing enabled the program executes functionally once per distinct
// (args, limits, layout) key and each Config costs only a trace walk;
// replays fan out across workers sharing the recorded trace read-only.
// Results are index-aligned with cfgs.
//
// Cancellation is threaded through the batched fan-out (internal/par)
// and the trace cache's singleflight: when ctx is done, idle workers
// stop claiming batches, waiters blocked
// on another caller's recording return, and EvaluateCtx itself returns
// ctx.Err() promptly without waiting for replays already in flight
// (which finish and are dropped).
//
// With tracing enabled the grid is grouped by the non-timing part of
// each Config — normalized (StackSlots, MaxSteps, MaxCallDepth), which
// is exactly the trace cache key — and every group re-times through one
// machine.ReplayBatch call on the group's shared trace, so all the
// pipelined points of a sweep cost one instruction walk instead of one
// each. Groups are split into up to `workers` sub-batches to keep the
// fan-out parallel; per-config results are independent of batch
// composition (pinned by the differential tests), so worker count never
// changes the output. Because the grouping key equals the trace key,
// every config's limits are at least as generous as its own trace's
// recorded run — a config whose limits fault does so during recording,
// inside traceFor, exactly as on the unbatched path.
func (c *Compilation) EvaluateCtx(ctx context.Context, args []int64, cfgs []machine.Config, workers int) ([]*machine.Result, error) {
	results := make([]*machine.Result, len(cfgs))
	if !TraceEnabled() {
		if err := par.EachCtx(ctx, workers, len(cfgs), func(i int) error {
			res, err := c.runMachine(ctx, args, cfgs[i])
			if err != nil {
				return err
			}
			results[i] = res
			return nil
		}); err != nil {
			return nil, err
		}
		return results, nil
	}

	type traceKey struct {
		slots int
		steps int64
		depth int
	}
	groups := make(map[traceKey][]int)
	var order []traceKey
	for i, cfg := range cfgs {
		n := cfg.Normalized()
		k := traceKey{n.StackSlots, n.MaxSteps, n.MaxCallDepth}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	// split each group into up to `workers` contiguous sub-batches so a
	// single-group grid still spreads across the pool
	w := par.Workers(workers)
	var units [][]int
	for _, k := range order {
		idxs := groups[k]
		nu := w
		if nu > len(idxs) {
			nu = len(idxs)
		}
		for u := 0; u < nu; u++ {
			lo, hi := u*len(idxs)/nu, (u+1)*len(idxs)/nu
			units = append(units, idxs[lo:hi])
		}
	}
	if err := par.EachCtx(ctx, workers, len(units), func(u int) error {
		idxs := units[u]
		tr, err := c.traceFor(ctx, args, cfgs[idxs[0]])
		if err != nil {
			// the recording run faulted: this is the same error direct
			// execution under these limits would produce
			return err
		}
		sub := make([]machine.Config, len(idxs))
		for j, i := range idxs {
			sub[j] = cfgs[i]
		}
		res, err := machine.ReplayBatch(c.Code, tr, sub)
		if err != nil {
			if !errors.Is(err, machine.ErrTraceMismatch) {
				return err
			}
			// layout mismatch (cannot happen via this key, but stay safe)
			for _, i := range idxs {
				r, rerr := machine.Run(c.Code, args, cfgs[i], nil)
				if rerr != nil {
					return rerr
				}
				results[i] = r
			}
			return nil
		}
		for j, i := range idxs {
			results[i] = res[j]
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return results, nil
}

// RunReferenceCtx interprets the unoptimized IR (the semantic oracle).
// The interpreter polls ctx, so a done ctx stops the interpretation
// promptly, before it starts or mid-run.
func (c *Compilation) RunReferenceCtx(ctx context.Context, args []int64) (*interp.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return interp.Run(c.Ref, interp.Options{Args: args, Ctx: ctx})
}

// TotalStats sums optimizer statistics over all functions.
func (c *Compilation) TotalStats() ssapre.Stats {
	var total ssapre.Stats
	for _, s := range c.Stats {
		total.Add(*s)
	}
	return total
}

// CollectProfileCtx runs the alias/edge profiler on src with the given
// training input and returns the serialized profile, suitable for
// Config.ProfileJSON in a later CompileCtx. It is the same canonical,
// cached computation CompileCtx uses (frontend, refinement, one
// interpreter run), so collecting a profile warms the cache for a later
// CompileCtx with the same training args — and vice versa. The cache
// lookup and any nested frontend wait honor ctx.
func CollectProfileCtx(ctx context.Context, src string, args []int64) ([]byte, error) {
	return profileDataCtx(ctx, src, Config{ProfileArgs: args})
}

// Reference interprets the unoptimized program and returns its result.
func Reference(src string, args []int64) (*interp.Result, error) {
	prog, err := frontendCtx(context.Background(), src)
	if err != nil {
		return nil, err
	}
	return interp.Run(prog, interp.Options{Args: args})
}

// ReuseLimitWorkersCtx runs the Fig. 12 simulation-based load-reuse
// limit study on the unoptimized program: references with identical
// syntax trees form equivalence classes and repeats of the same (class,
// address, value) are counted as potential speculative reuses.
//
// The simulation is sharded by equivalence class across workers: one
// interpreter run records the dynamic memory-access stream, then the
// reuse walk partitions it per class shard (the state is keyed by
// (class, address), so shards are independent and the merged totals
// match the serial walk exactly). workers <= 1 runs the simulation
// inline during interpretation — the serial path and the equivalence
// oracle. The frontend cache lookup and the interpreter run honor ctx.
func ReuseLimitWorkersCtx(ctx context.Context, src string, args []int64, workers int) (*interp.ReuseSim, error) {
	prog, err := frontendCtx(ctx, src)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	keys := ir.SiteSyntaxKeys(prog)
	classes := map[int]int{}
	classIDs := map[string]int{}
	for site, key := range keys {
		id, ok := classIDs[key]
		if !ok {
			id = len(classIDs)
			classIDs[key] = id
		}
		classes[site] = id
	}
	if par.Workers(workers) <= 1 {
		sim := interp.NewReuseSim(classes)
		if _, err := interp.Run(prog, interp.Options{Args: args, Reuse: sim, Ctx: ctx}); err != nil {
			return nil, err
		}
		return sim, nil
	}
	tr := &interp.MemTrace{}
	if _, err := interp.Run(prog, interp.Options{Args: args, MemTrace: tr, Ctx: ctx}); err != nil {
		return nil, err
	}
	return interp.ShardedReuse(classes, tr, workers), nil
}

// PipelinedMachine returns the default machine model with the pipelined
// scoreboard timing enabled, for use in Config.Machine.
func PipelinedMachine() machine.Config {
	cfg := machine.Defaults()
	cfg.Pipelined = true
	return cfg
}
