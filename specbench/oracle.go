package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"

	"repro"
	"repro/internal/experiments"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/server"
)

// oracleWorkers is the oracle's parallelism: it runs after specd has
// exited, so both cores are free.
const oracleWorkers = 2

// answers holds the decoded responses of the window and the oracle's
// verdict on each. Nothing here is timed.
type answers struct {
	failed   []bool
	problems []string
	evals    []*experiments.EvalResult
	compiles []*server.CompileResponse
	sweeps   []*server.SweepResponse
	// sweepLoads holds, per kernel, the loads (excluding checks) that
	// direct machine.Run retired at each grid point; /sweep answers carry
	// cycles only.
	sweepLoads map[string][]float64
}

func (a *answers) fail(i int, format string, args ...any) {
	if i >= 0 {
		a.failed[i] = true
	}
	if len(a.problems) < 20 {
		a.problems = append(a.problems, fmt.Sprintf(format, args...))
	}
}

func (a *answers) nFailed() int {
	n := 0
	for _, f := range a.failed {
		if f {
			n++
		}
	}
	return n
}

// checkAnswers is the answer oracle. Every /evaluate must return what
// the reference interpreter computes on the unoptimized program; every
// /compile must succeed with no residual leak; every /sweep of a kernel
// must return the same bytes, which must match direct machine.Run at
// every grid point.
func checkAnswers(ctx context.Context, seq []*request, outs []outcome) *answers {
	a := &answers{
		failed:     make([]bool, len(outs)),
		evals:      make([]*experiments.EvalResult, len(outs)),
		compiles:   make([]*server.CompileResponse, len(outs)),
		sweeps:     make([]*server.SweepResponse, len(outs)),
		sweepLoads: map[string][]float64{},
	}
	// distinct (source, input) pairs to interpret
	type refKey struct{ src, args string }
	refIdx := map[refKey]int{}
	var refSrc []string
	var refArgs [][]int64
	sweepBody := map[string][]byte{}
	for i, o := range outs {
		r := seq[i]
		if !o.ok() {
			a.fail(i, "request %d (%s %s): status %d, error %v: %.200s", i, r.path, r.kernel.Name, o.status, o.err, o.body)
			continue
		}
		switch {
		case r.eval != nil:
			var res experiments.EvalResult
			if err := json.Unmarshal(o.body, &res); err != nil || res.Result == nil {
				a.fail(i, "request %d: undecodable /evaluate answer: %v", i, err)
				continue
			}
			a.evals[i] = &res
			k := refKey{r.kernel.Src, fmt.Sprint(res.Args)}
			if _, seen := refIdx[k]; !seen {
				refIdx[k] = len(refSrc)
				refSrc = append(refSrc, r.kernel.Src)
				refArgs = append(refArgs, res.Args)
			}
		case r.compile != nil:
			var res server.CompileResponse
			if err := json.Unmarshal(o.body, &res); err != nil {
				a.fail(i, "request %d: undecodable /compile answer: %v", i, err)
				continue
			}
			a.compiles[i] = &res
			switch {
			case res.ProfileErr != "":
				a.fail(i, "request %d: compile fell back to a static profile: %s", i, res.ProfileErr)
			case res.Harden == nil || string(res.Harden.Policy) != r.compile.Harden:
				a.fail(i, "request %d: compile answer lacks the %s hardening report", i, r.compile.Harden)
			case res.Harden.Residual != 0:
				a.fail(i, "request %d: %d residual leaks after hardening", i, res.Harden.Residual)
			}
		case r.sweep != nil:
			name := r.kernel.Name
			if first, ok := sweepBody[name]; !ok {
				sweepBody[name] = o.body
			} else if !bytes.Equal(first, o.body) {
				a.fail(i, "request %d: /sweep of %s differs from its first answer", i, name)
				continue
			}
			var res server.SweepResponse
			if err := json.Unmarshal(o.body, &res); err != nil {
				a.fail(i, "request %d: undecodable /sweep answer: %v", i, err)
				continue
			}
			a.sweeps[i] = &res
		}
	}

	// reference interpretations, two at a time (specd has exited)
	refRes := make([]*interp.Result, len(refSrc))
	refErrs := make([]error, len(refSrc))
	par.EachCtx(ctx, oracleWorkers, len(refSrc), func(j int) error {
		refRes[j], refErrs[j] = repro.Reference(refSrc[j], refArgs[j])
		return nil
	})
	for i, res := range a.evals {
		if res == nil {
			continue
		}
		r := seq[i]
		want := r.eval.Args
		if want == nil {
			want = r.kernel.RefArgs
		}
		j := refIdx[refKey{r.kernel.Src, fmt.Sprint(res.Args)}]
		ref := refRes[j]
		switch {
		case res.Workload != r.kernel.Name || !reflect.DeepEqual(res.Args, want):
			a.fail(i, "request %d: answer echoes %s%v, sent %s%v", i, res.Workload, res.Args, r.kernel.Name, want)
		case refErrs[j] != nil:
			a.fail(i, "request %d: reference interpreter: %v", i, refErrs[j])
		case ref == nil:
			a.fail(i, "request %d: not interpreted", i)
		case res.Result.Ret != ref.Ret || res.Result.Output != ref.Output:
			a.fail(i, "request %d (%s %v): returned %d %q, reference %d %q",
				i, r.kernel.Name, want, res.Result.Ret, res.Result.Output, ref.Ret, ref.Output)
		}
	}

	// one sweep answer per kernel against direct execution
	var kernels []*request
	seen := map[string]bool{}
	for i, res := range a.sweeps {
		if res != nil && !seen[seq[i].kernel.Name] {
			seen[seq[i].kernel.Name] = true
			kernels = append(kernels, seq[i])
		}
	}
	loads := make([][]float64, len(kernels))
	errs := make([]error, len(kernels))
	par.EachCtx(ctx, oracleWorkers, len(kernels), func(j int) error {
		loads[j], errs[j] = checkSweep(ctx, kernels[j], sweepBody[kernels[j].kernel.Name])
		return nil
	})
	for j, r := range kernels {
		if errs[j] != nil {
			for i, res := range a.sweeps {
				if res != nil && seq[i].kernel.Name == r.kernel.Name {
					a.failed[i] = true
				}
			}
			a.fail(-1, "sweep %s: %v", r.kernel.Name, errs[j])
			continue
		}
		a.sweepLoads[r.kernel.Name] = loads[j]
	}
	return a
}

// checkSweep compares one /sweep answer with direct machine.Run of the
// same build at every grid point, and returns each point's loads.
func checkSweep(ctx context.Context, r *request, body []byte) ([]float64, error) {
	var res server.SweepResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	w, cfg, err := sweepConfig(r.sweep)
	if err != nil {
		return nil, err
	}
	c, err := repro.CompileCtx(ctx, w.Src, cfg)
	if err != nil {
		return nil, err
	}
	grid := r.sweep.Configs
	if grid == nil {
		grid = experiments.MachineSweepConfigs()
	}
	if len(res.Points) != len(grid) {
		return nil, fmt.Errorf("%d points for a %d-point grid", len(res.Points), len(grid))
	}
	loads := make([]float64, len(grid))
	for j, mc := range grid {
		p := res.Points[j]
		if !reflect.DeepEqual(p.Config, mc) {
			return nil, fmt.Errorf("point %d echoes config %+v, want %+v", j, p.Config, mc)
		}
		direct, err := machine.Run(c.Code, w.RefArgs, mc, nil)
		if err != nil {
			return nil, err
		}
		d := direct.Counters
		if p.Cycles != d.Cycles || p.FailedChecks != d.FailedChecks || p.Evictions != d.ALATEvictions {
			return nil, fmt.Errorf("point %d: answered cycles/failed/evicted %d/%d/%d, direct run %d/%d/%d",
				j, p.Cycles, p.FailedChecks, p.Evictions, d.Cycles, d.FailedChecks, d.ALATEvictions)
		}
		loads[j] = float64(d.LoadsRetired - d.CheckLoads)
	}
	return loads, nil
}
