package main

import (
	"errors"
	"fmt"

	"repro"
	"repro/internal/alias"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harden"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/source"
	"repro/internal/specheck"
	"repro/internal/ssapre"
	"repro/internal/workloads"
)

// pipeline drives the compiler's layers by hand, in repro.CompileCtx's
// order, with a span around every call. Its three maps stand in for
// repro's compilation cache (parsed programs, serialized profiles,
// decoded traces), so a replayed request does the same work specd did:
// a warm request re-parses and re-profiles nothing. The fidelity gate
// compares each build's fingerprint with repro.CompileCtx's, so the
// replica cannot drift from the shipped pipeline unnoticed.
type pipeline struct {
	t        *tracer
	masters  map[string]*ir.Program
	profiles map[string][]byte
	traces   map[string]*machine.Trace
}

func newPipeline(t *tracer) *pipeline {
	return &pipeline{
		t:        t,
		masters:  map[string]*ir.Program{},
		profiles: map[string][]byte{},
		traces:   map[string]*machine.Trace{},
	}
}

// tracedOutcome is what one replayed request produced, kept for the
// fidelity gate.
type tracedOutcome struct {
	code    *machine.Program
	stats   ssapre.Stats
	harden  *harden.Report
	results []*machine.Result // one per evaluation or grid point
}

// replay runs one request through the hand-driven pipeline, mirroring
// the specd handler that serves it.
func (p *pipeline) replay(r *request) (*tracedOutcome, error) {
	root := p.t.begin("request")
	defer p.t.end(root)
	switch {
	case r.eval != nil:
		return p.evaluate(r.eval)
	case r.compile != nil:
		return p.compileRequest(r.compile)
	case r.sweep != nil:
		return p.sweep(r.sweep)
	}
	return nil, errors.New("empty request")
}

// warm performs a set-up request; call it before tracing starts. The
// cold mix's set-up only parses, which is all an unoptimized compile
// caches.
func (p *pipeline) warm(r *request) error {
	if r.compile != nil && r.compile.Config != nil && r.compile.Config.OptimizeOff {
		_, err := p.frontend(r.compile.Source)
		return err
	}
	_, err := p.replay(r)
	return err
}

// compileConfig is the build specd's handleCompile runs for req.
func compileConfig(req *server.CompileRequest) repro.Config {
	cfg := repro.Config{Spec: repro.SpecProfile}
	if req.Config != nil {
		cfg = *req.Config
	}
	cfg.Workers = req.Workers
	cfg.VerifyPasses = cfg.VerifyPasses || req.Verify
	if req.Harden != "" {
		cfg.Harden = req.Harden
	}
	return cfg
}

// evalConfig is the kernel, build and measurement input
// experiments.RunEvalCtx uses for req.
func evalConfig(req *experiments.EvalRequest) (workloads.Workload, repro.Config, []int64, error) {
	w, ok := workloads.Resolve(req.Workload)
	if !ok {
		return w, repro.Config{}, nil, fmt.Errorf("unknown workload %q", req.Workload)
	}
	cfg := repro.Config{Spec: repro.SpecProfile}
	if req.Config != nil {
		cfg = *req.Config
	}
	if cfg.ProfileArgs == nil {
		cfg.ProfileArgs = w.ProfileArgs
	}
	cfg.Workers = req.Workers
	cfg.VerifyPasses = cfg.VerifyPasses || req.Verify
	if req.Harden != "" {
		cfg.Harden = req.Harden
	}
	args := req.Args
	if args == nil {
		args = w.RefArgs
	}
	return w, cfg, args, nil
}

// sweepConfig is the build experiments.RunMachineSweepCtx compiles.
func sweepConfig(req *server.SweepRequest) (workloads.Workload, repro.Config, error) {
	w, ok := workloads.Resolve(req.Workload)
	if !ok {
		return w, repro.Config{}, fmt.Errorf("unknown workload %q", req.Workload)
	}
	return w, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs, Workers: req.Workers}, nil
}

// buildFor is the source and build config behind any request: what
// repro.CompileCtx compiles when specd serves it.
func buildFor(r *request) (string, repro.Config, error) {
	switch {
	case r.eval != nil:
		w, cfg, _, err := evalConfig(r.eval)
		return w.Src, cfg, err
	case r.compile != nil:
		return r.compile.Source, compileConfig(r.compile), nil
	case r.sweep != nil:
		w, cfg, err := sweepConfig(r.sweep)
		return w.Src, cfg, err
	}
	return "", repro.Config{}, errors.New("empty request")
}

// compileRequest mirrors specd's handleCompile.
func (p *pipeline) compileRequest(req *server.CompileRequest) (*tracedOutcome, error) {
	return p.compile(req.Source, compileConfig(req))
}

// evaluate mirrors experiments.RunEvalCtx.
func (p *pipeline) evaluate(req *experiments.EvalRequest) (*tracedOutcome, error) {
	w, cfg, args, err := evalConfig(req)
	if err != nil {
		return nil, err
	}
	out, err := p.compile(w.Src, cfg)
	if err != nil {
		return nil, err
	}
	tr, err := p.trace(out.code, args, cfg.Machine)
	if err != nil {
		return nil, err
	}
	var res *machine.Result
	p.t.do("machine.replay", func() { res, err = machine.Replay(out.code, tr, cfg.Machine, nil) })
	if err != nil {
		return nil, err
	}
	p.countRun(res)
	out.results = []*machine.Result{res}
	return out, nil
}

// sweep mirrors experiments.RunMachineSweepCtx and the batched
// re-timing in Compilation.EvaluateCtx: configs sharing a trace key
// re-time in one ReplayBatch call (with one worker there is one batch
// per key).
func (p *pipeline) sweep(req *server.SweepRequest) (*tracedOutcome, error) {
	if req.Workers != 1 {
		return nil, errors.New("the traced sweep replicates the one-worker batching only")
	}
	w, cfg, err := sweepConfig(req)
	if err != nil {
		return nil, err
	}
	out, err := p.compile(w.Src, cfg)
	if err != nil {
		return nil, err
	}
	cfgs := req.Configs
	if cfgs == nil {
		cfgs = experiments.MachineSweepConfigs()
	}
	out.results = make([]*machine.Result, len(cfgs))
	type limits struct {
		slots int
		steps int64
		depth int
	}
	groups := map[limits][]int{}
	var order []limits
	for i, c := range cfgs {
		n := c.Normalized()
		k := limits{n.StackSlots, n.MaxSteps, n.MaxCallDepth}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	for _, k := range order {
		idxs := groups[k]
		tr, err := p.trace(out.code, w.RefArgs, cfgs[idxs[0]])
		if err != nil {
			return nil, err
		}
		sub := make([]machine.Config, len(idxs))
		for j, i := range idxs {
			sub[j] = cfgs[i]
		}
		var res []*machine.Result
		p.t.do("machine.replay_batch", func() { res, err = machine.ReplayBatch(out.code, tr, sub) })
		if err != nil {
			return nil, err
		}
		for j, i := range idxs {
			out.results[i] = res[j]
			p.countRun(res[j])
		}
	}
	return out, nil
}

func (p *pipeline) countRun(res *machine.Result) {
	c := res.Counters
	p.t.count("machine.instrs_retired", float64(c.InstrsRetired))
	p.t.count("machine.check_loads", float64(c.CheckLoads))
	p.t.count("machine.check_hits", float64(c.CheckLoads-c.FailedChecks))
}

// frontend returns a private clone of src's lowered program, parsing
// and lowering it on first use.
func (p *pipeline) frontend(src string) (*ir.Program, error) {
	m, ok := p.masters[src]
	if !ok {
		var f *source.File
		var err error
		p.t.do("source.parse", func() { f, err = source.Parse(src) })
		if err != nil {
			return nil, err
		}
		p.t.do("source.lower", func() { m, err = source.Lower(f) })
		if err != nil {
			return nil, err
		}
		p.masters[src] = m
	}
	return p.clone(m), nil
}

func (p *pipeline) clone(m *ir.Program) *ir.Program {
	var c *ir.Program
	p.t.do("ir.clone", func() { c = ir.Clone(m) })
	return c
}

// profileData returns the serialized training profile for (src, args),
// computing it as repro does on a cache miss: a fresh clone, alias
// refinement, one profiling interpreter run, profile.Marshal.
func (p *pipeline) profileData(src string, args []int64, workers int) ([]byte, error) {
	key := src + "\x00" + fmt.Sprint(args)
	if data, ok := p.profiles[key]; ok {
		return data, nil
	}
	prog, err := p.frontend(src)
	if err != nil {
		return nil, err
	}
	p.t.do("alias.refine", func() { alias.RefineWorkers(prog, workers) })
	prof := profile.New()
	var res *interp.Result
	p.t.do("interp.train", func() {
		res, err = interp.Run(prog, interp.Options{CollectEdges: true, CollectAlias: true, Profile: prof, Args: args})
	})
	if err != nil {
		return nil, err
	}
	p.t.count("interp.train_steps", float64(res.Steps))
	var data []byte
	p.t.do("profile.marshal", func() { data, err = profile.Marshal(prog, prof) })
	if err != nil {
		return nil, err
	}
	p.t.count("profile.bytes", float64(len(data)))
	p.profiles[key] = data
	return data, nil
}

// trace returns the decoded machine trace for (code, args) under mcfg's
// limits, recording, encoding and decoding it on first use as repro's
// two-tier trace cache does. The code's fingerprint is part of the key.
func (p *pipeline) trace(code *machine.Program, args []int64, mcfg machine.Config) (*machine.Trace, error) {
	n := mcfg.Normalized()
	var fp [32]byte
	p.t.do("machine.fingerprint", func() { fp = code.Fingerprint() })
	key := fmt.Sprint(fp, args, n.StackSlots, n.MaxSteps, n.MaxCallDepth)
	if tr, ok := p.traces[key]; ok {
		return tr, nil
	}
	var tr *machine.Trace
	var err error
	p.t.do("machine.record", func() { tr, err = machine.Record(code, args, n) })
	if err != nil {
		return nil, err
	}
	var data []byte
	p.t.do("machine.trace_encode", func() { data = tr.Marshal() })
	p.t.do("machine.trace_decode", func() { tr, err = machine.UnmarshalTrace(data) })
	if err != nil {
		return nil, err
	}
	p.t.count("machine.trace_bytes", float64(len(data)))
	p.t.count("machine.trace_events", float64(tr.Events()))
	p.traces[key] = tr
	return tr, nil
}

// compile is repro.CompileCtx for the configurations the workloads
// send: profile-guided speculation from a training run, optionally
// verified by specheck and hardened.
func (p *pipeline) compile(src string, cfg repro.Config) (*tracedOutcome, error) {
	if cfg.Spec != repro.SpecProfile || cfg.OptimizeOff || cfg.Schedule || cfg.AggressivePromotion ||
		cfg.NoTypeBasedAA || len(cfg.ProfileJSON) > 0 || len(cfg.FnSpec) > 0 {
		return nil, errors.New("the traced pipeline replicates profile-guided builds only")
	}
	root := p.t.begin("repro.compile")
	defer p.t.end(root)

	verifyCalls := func(layer string, checks ...func() []specheck.Violation) error {
		var vs []specheck.Violation
		p.t.do(layer, func() {
			for _, check := range checks {
				vs = append(vs, check()...)
			}
		})
		p.t.count("specheck.violations", float64(len(vs)))
		return specheck.AsError(vs)
	}

	ref, err := p.frontend(src)
	if err != nil {
		return nil, err
	}
	prog := p.clone(ref)
	p.t.count("source.ir_stmts", float64(stmtCount(prog)))

	p.t.do("alias.refine", func() { alias.RefineWorkers(prog, cfg.Workers) })
	var ar *alias.Result
	p.t.do("alias.analyze", func() { ar = alias.Analyze(prog, alias.Options{TypeBased: true}) })
	p.t.do("alias.annotate", func() { ar.AnnotateWorkers(prog, cfg.Workers) })
	env := &specheck.Env{Alias: ar}
	if cfg.VerifyPasses {
		if err := verifyCalls("specheck.layer1", func() []specheck.Violation {
			return specheck.CheckAnnotated(prog, env, "alias-annotate")
		}); err != nil {
			return nil, err
		}
	}

	data, err := p.profileData(src, cfg.ProfileArgs, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("profiling run failed: %w", err)
	}
	var prof *profile.Profile
	p.t.do("profile.unmarshal", func() { prof, err = profile.Unmarshal(prog, data) })
	if err != nil {
		return nil, err
	}
	p.t.do("profile.apply_edges", func() { prof.ApplyEdges(prog) })

	mode := core.ModeProfile
	pol := core.PolicyFor(cfg.Machine, cfg.SpecThreshold)
	p.t.do("core.assign_flags", func() { core.AssignFlagsTiered(prog, ar, prof, mode, pol, nil) })
	env.Prof, env.Mode, env.Policy = prof, mode, pol
	if cfg.VerifyPasses {
		if err := verifyCalls("specheck.layer1",
			func() []specheck.Violation { return specheck.CheckAnnotated(prog, env, "assign-flags") },
			func() []specheck.Violation { return specheck.CheckFlags(prog, env, "assign-flags") },
		); err != nil {
			return nil, err
		}
	}

	var hook func(fn *ir.Func, pass string, inSSA bool) error
	if cfg.VerifyPasses {
		hook = func(fn *ir.Func, pass string, inSSA bool) error {
			return verifyCalls("specheck.layer1", func() []specheck.Violation {
				if inSSA {
					return specheck.CheckSSAFunc(fn, pass)
				}
				return specheck.CheckPostSSA(fn, pass)
			})
		}
	}
	var stats map[string]*ssapre.Stats
	p.t.do("ssapre.run", func() {
		stats, err = ssapre.Run(prog, ssapre.Options{
			DataSpec:    mode,
			ControlSpec: !cfg.NoControlSpec,
			Rounds:      cfg.Rounds,
			Alias:       ar,
			NoArith:     cfg.NoArith,
			NoStrength:  cfg.NoStrength,
			Workers:     cfg.Workers,
			VerifyHook:  hook,
		})
	})
	if err != nil {
		return nil, err
	}
	b := &tracedOutcome{}
	for _, s := range stats {
		b.stats.Add(*s)
	}
	p.t.count("ssapre.eliminated", float64(b.stats.Eliminated))
	p.t.count("ssapre.checks_inserted", float64(b.stats.ChecksInserted))
	p.t.count("ssapre.adv_loads_marked", float64(b.stats.AdvLoadsMarked))
	p.t.do("ir.verify", func() {
		for _, fn := range prog.Funcs {
			if err = ir.Verify(fn); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}

	p.t.do("codegen.lower", func() { b.code, err = codegen.LowerWorkers(prog, cfg.Workers) })
	if err != nil {
		return nil, err
	}
	for _, fc := range b.code.Funcs {
		p.t.count("codegen.instrs", float64(len(fc.Instrs)))
	}
	if cfg.VerifyPasses {
		if err := verifyCalls("specheck.layer2", func() []specheck.Violation {
			return specheck.CheckMachine(b.code, "codegen")
		}); err != nil {
			return nil, err
		}
	}
	if cfg.Harden != "" {
		policy, err := harden.ParsePolicy(cfg.Harden)
		if err != nil {
			return nil, err
		}
		p.t.do("harden.apply", func() { b.harden, err = harden.Apply(b.code, policy) })
		if err != nil {
			return nil, err
		}
		p.t.count("harden.fences", float64(b.harden.FencesInserted))
		p.t.count("harden.hoists", float64(b.harden.ChecksHoisted))
		if err := verifyCalls("specheck.layer3", func() []specheck.Violation {
			return specheck.CheckLeaks(b.code, "harden")
		}); err != nil {
			return nil, err
		}
		if cfg.VerifyPasses {
			if err := verifyCalls("specheck.layer2", func() []specheck.Violation {
				return specheck.CheckMachine(b.code, "harden")
			}); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

func stmtCount(prog *ir.Program) int {
	n := 0
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			n += len(b.Stmts)
		}
	}
	return n
}
