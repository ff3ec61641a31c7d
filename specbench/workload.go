package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"repro"
	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/workloads"
)

// The three traffic mixes. Each is a seeded sequence of requests; the
// closed loop sends them in order, and the traced run replays a prefix
// of the same sequence in process.
const (
	serveWarm = "serve-warm"
	serveCold = "serve-cold"
	sweep     = "sweep"
)

// request is one generated specd call. The in-process replays use the
// decoded form (exactly one of eval, compile, sweep is set); the closed
// loop sends body to path.
type request struct {
	kernel  workloads.Workload
	path    string
	body    []byte
	eval    *experiments.EvalRequest
	compile *server.CompileRequest
	sweep   *server.SweepRequest
}

// generator yields a workload's request sequence for one seed. Requests
// are drawn in shuffled blocks, so every prefix of the sequence stays
// close to the intended mix whatever the seed.
type generator struct {
	workload string
	rng      *rand.Rand
	kernels  []workloads.Workload
	block    []*request
	nCompile int

	// serve-warm and sweep repeat a few distinct requests; they are
	// built once and shared by every position that sends them.
	memo map[string]*request

	// serve-cold: per kernel, the training and measurement input
	// streams; a kernel whose inputs are used up leaves the draw.
	streams   map[string][2]*argStream
	exhausted map[string]bool
}

func newGenerator(workload string, seed uint64) (*generator, error) {
	switch workload {
	case serveWarm, serveCold, sweep:
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", workload, serveWarm, serveCold, sweep)
	}
	return &generator{
		workload:  workload,
		rng:       rand.New(rand.NewPCG(seed, 0x5eed5bec)),
		kernels:   workloads.All(),
		streams:   map[string][2]*argStream{},
		exhausted: map[string]bool{},
		memo:      map[string]*request{},
	}, nil
}

// generate returns the first n requests of the sequence. It fails only
// when serve-cold has run out of fresh argument vectors.
func (g *generator) generate(n int) ([]*request, error) {
	out := make([]*request, 0, n)
	for len(out) < n {
		if len(g.block) == 0 {
			b, err := g.nextBlock()
			if err != nil {
				return nil, err
			}
			g.block = b
		}
		out = append(out, g.block[0])
		g.block = g.block[1:]
	}
	return out, nil
}

func (g *generator) nextBlock() ([]*request, error) {
	var b []*request
	switch g.workload {
	case serveWarm:
		// 32 requests: each kernel three times as a config-less
		// evaluation and once as a verified, hardened compile
		for _, k := range g.kernels {
			for i := 0; i < 3; i++ {
				b = append(b, g.memoized("evaluate "+k.Name, func() *request { return evalRequest(k, nil, nil) }))
			}
			b = append(b, &request{kernel: k}) // compile slot, built after the shuffle
		}
	case serveCold:
		for _, k := range g.kernels {
			if g.exhausted[k.Name] {
				continue
			}
			pa, args, ok := g.freshArgs(k)
			if !ok {
				g.exhausted[k.Name] = true
				continue
			}
			b = append(b, evalRequest(k, pa, args))
		}
		if len(b) == 0 {
			return nil, fmt.Errorf("serve-cold: every kernel's argument space is used up")
		}
	case sweep:
		for _, k := range g.kernels {
			b = append(b, g.memoized("sweep "+k.Name, func() *request { return sweepRequest(k) }))
		}
	}
	g.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	if g.workload == serveWarm {
		// compiles alternate fence and hoist in sequence order
		for i, r := range b {
			if r.path == "" {
				b[i] = g.compileRequest(r.kernel)
			}
		}
	}
	return b, nil
}

func evalRequest(k workloads.Workload, profileArgs, args []int64) *request {
	req := &experiments.EvalRequest{Workload: k.Name, Workers: 1, Args: args}
	if profileArgs != nil {
		req.Config = &repro.Config{Spec: repro.SpecProfile, ProfileArgs: profileArgs}
	}
	return &request{kernel: k, path: "/evaluate", body: mustJSON(req), eval: req}
}

// sweepRequest re-times k's default build over the standard grid.
func sweepRequest(k workloads.Workload) *request {
	req := &server.SweepRequest{Workload: k.Name, Workers: 1}
	return &request{kernel: k, path: "/sweep", body: mustJSON(req), sweep: req}
}

// parseRequest compiles k unoptimized: it caches k's parse and nothing
// else, since an unoptimized build needs no profile.
func parseRequest(k workloads.Workload) *request {
	req := &server.CompileRequest{Source: k.Src, Config: &repro.Config{OptimizeOff: true}, Workers: 1}
	return &request{kernel: k, path: "/compile", body: mustJSON(req), compile: req}
}

// compileRequest builds the warm mix's /compile: the kernel's default
// profile-guided build, trained on its training input (so the profile
// comes from the cache), verified by specheck and hardened.
func (g *generator) compileRequest(k workloads.Workload) *request {
	policy := "fence"
	if g.nCompile%2 == 1 {
		policy = "hoist"
	}
	g.nCompile++
	return g.memoized("compile "+policy+" "+k.Name, func() *request {
		req := &server.CompileRequest{
			Source:  k.Src,
			Config:  &repro.Config{Spec: repro.SpecProfile, ProfileArgs: k.ProfileArgs},
			Workers: 1,
			Verify:  true,
			Harden:  policy,
		}
		return &request{kernel: k, path: "/compile", body: mustJSON(req), compile: req}
	})
}

func (g *generator) memoized(key string, build func() *request) *request {
	r := g.memo[key]
	if r == nil {
		r = build()
		g.memo[key] = r
	}
	return r
}

// freshArgs draws a training and a measurement input for k.
func (g *generator) freshArgs(k workloads.Workload) (profileArgs, args []int64, ok bool) {
	st, ok := g.streams[k.Name]
	if !ok {
		st = [2]*argStream{newArgStream(k, profileAlpha, g.rng), newArgStream(k, argsAlpha, g.rng)}
		g.streams[k.Name] = st
	}
	if profileArgs, ok = st[0].next(); !ok {
		return nil, nil, false
	}
	if args, ok = st[1].next(); !ok {
		return nil, nil, false
	}
	return profileArgs, args, true
}

// Per-dimension steps of the two input streams: fractional parts of
// square roots of distinct primes, so no two dimensions move in step.
var (
	profileAlpha = []float64{math.Sqrt2 - 1, math.Sqrt(3) - 1, math.Sqrt(5) - 2}
	argsAlpha    = []float64{math.Sqrt(7) - 2, math.Sqrt(11) - 3, math.Sqrt(13) - 3}
)

// argStream draws one kernel's input vectors, elementwise between its
// training and reference inputs, from a Kronecker sequence with a
// seeded start. Its first n draws cover that box almost evenly whatever
// the seed, so the work a run does varies little from seed to seed.
// Vectors equal to a published input or to an earlier draw are skipped,
// so every profile and trace key is new within the run.
type argStream struct {
	lo, width []int64
	alpha     []float64
	pos       []float64
	space     int64
	seen      map[string]bool
}

func newArgStream(k workloads.Workload, alpha []float64, rng *rand.Rand) *argStream {
	s := &argStream{
		alpha: alpha,
		space: 1,
		seen:  map[string]bool{fmt.Sprint(k.ProfileArgs): true, fmt.Sprint(k.RefArgs): true},
	}
	for i := range k.ProfileArgs {
		s.lo = append(s.lo, min(k.ProfileArgs[i], k.RefArgs[i]))
		s.width = append(s.width, width(k.ProfileArgs[i], k.RefArgs[i]))
		s.pos = append(s.pos, rng.Float64())
		s.space *= s.width[i]
	}
	return s
}

// next returns the next fresh vector, or false once the box is used up.
func (s *argStream) next() ([]int64, bool) {
	// a Kronecker sequence is equidistributed, so it reaches every
	// unused cell; the step bound only guards against float rounding
	for step := int64(0); int64(len(s.seen)) < s.space && step < 100*s.space; step++ {
		v := make([]int64, len(s.lo))
		for i := range v {
			s.pos[i] = math.Mod(s.pos[i]+s.alpha[i], 1)
			v[i] = s.lo[i] + min(int64(s.pos[i]*float64(s.width[i])), s.width[i]-1)
		}
		if key := fmt.Sprint(v); !s.seen[key] {
			s.seen[key] = true
			return v, true
		}
	}
	return nil, false
}

// width is the number of integers in the closed range between a and b.
func width(a, b int64) int64 {
	if a > b {
		a, b = b, a
	}
	return b - a + 1
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return data
}
