package main

import (
	"context"
	"testing"
	"time"

	"repro"
	"repro/internal/workloads"
)

// TestPipelineMatchesCompileCtx is the fidelity gate at unit scale: the
// hand-driven pipeline must build the same code as repro.CompileCtx for
// every request shape the workloads send.
func TestPipelineMatchesCompileCtx(t *testing.T) {
	tr := newTracer()
	tr.on = true
	p := newPipeline(tr)
	g, err := newGenerator(serveWarm, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range workloads.All() {
		reqs := []*request{
			evalRequest(k, nil, nil),
			g.compileRequest(k),
			g.compileRequest(k),
			sweepRequest(k),
			evalRequest(k, k.RefArgs, k.ProfileArgs),
		}
		for _, r := range reqs {
			got, err := p.replay(r)
			if err != nil {
				t.Fatalf("%s %s: %v", r.path, k.Name, err)
			}
			src, cfg, err := buildFor(r)
			if err != nil {
				t.Fatal(err)
			}
			want, err := repro.CompileCtx(context.Background(), src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.code.Fingerprint() != want.Code.Fingerprint() {
				t.Errorf("%s %s: traced build differs from repro.CompileCtx's", r.path, k.Name)
			}
		}
	}
}

// TestTracerSelfTimesCoverRequests checks the ledger's bookkeeping: the
// self times of all spans add up to the requests' total duration.
func TestTracerSelfTimesCoverRequests(t *testing.T) {
	tr := newTracer()
	tr.on = true
	p := newPipeline(tr)
	k := workloads.All()[0]
	var total time.Duration
	for i := 0; i < 3; i++ {
		tr.req = int32(i)
		if _, err := p.replay(evalRequest(k, nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range tr.spans {
		if s.Parent < 0 {
			if s.Name != "request" {
				t.Fatalf("root span %q, want request", s.Name)
			}
			total += time.Duration(s.End - s.Start)
		} else if p := tr.spans[s.Parent]; s.Start < p.Start || s.End > p.End || s.Req != p.Req {
			t.Fatalf("span %s escapes its parent %s", s.Name, p.Name)
		}
	}
	var self time.Duration
	for _, d := range tr.selfTimes() {
		self += d
	}
	if self != total {
		t.Fatalf("self times sum to %v, requests took %v", self, total)
	}
	if tr.counts["source.ir_stmts"] == 0 || tr.counts["codegen.instrs"] == 0 {
		t.Fatal("compile counts were not recorded")
	}
}
