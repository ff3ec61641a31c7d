// Command specbench is the repository's benchmark. It boots the specd
// binary built from this tree (two job slots, pprof on loopback),
// drives it for a fixed time with a closed loop of two keep-alive
// clients, checks every answer, and prints the end-to-end metrics. With
// -trace 1 it also replays a prefix of the same request sequence in
// process, through each compiler layer's public functions with a span
// around every call, and prints the per-layer ledger instead.
//
// Usage (run.sh builds both binaries and supplies -specd, -root, -out):
//
//	bash specbench/run.sh --workload serve-warm --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. Spans and a result record with the
// host (cores, GOMAXPROCS, go version, commit, seed) are written to
// -out. Check failures make correct false; a run that cannot measure at
// all (no specd, a cancelled run) exits non-zero without a result.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// setupRuns is how many times a run boots and warms specd; setup_s is
// the median. The last boot serves the measured window.
const setupRuns = 7

// simPrefix bounds the requests the sim_* metrics are taken over, so
// they do not depend on how many requests the window completed.
const simPrefix = 1024

// rateCap bounds each workload's request rate for sizing the generated
// sequence; it is several times what two cores sustain.
var rateCap = map[string]int{serveWarm: 1500, serveCold: 400, sweep: 400}

// tracedPrefix is how many requests the traced run replays: enough for
// a stable ledger, few enough that the untraced, traced and fidelity
// passes stay within a few seconds each.
var tracedPrefix = map[string]int{serveWarm: 512, serveCold: 128, sweep: 128}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	specd    string
	root     string
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "traffic mix: serve-warm, serve-cold or sweep")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the request sequence")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = also run the traced replay and report the per-layer ledger")
	flag.StringVar(&o.specd, "specd", "", "specd binary to drive")
	flag.StringVar(&o.root, "root", ".", "checkout the binaries were built from")
	flag.StringVar(&o.out, "out", "", "directory for spans and result records")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := bench(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "specbench:", err)
		os.Exit(1)
	}
	rep.print(o.trace == 1)
	if o.out != "" {
		if err := rep.save(filepath.Join(o.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))); err != nil {
			fmt.Fprintln(os.Stderr, "specbench:", err)
		}
	}
}

// host identifies where and on what a result was measured.
type host struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
}

type report struct {
	Host      host               `json:"host"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems"`
	Values    map[string]float64 `json:"values"`
}

func bench(ctx context.Context, o options) (*report, error) {
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.specd == "" {
		return nil, errors.New("need -workload, -seconds >= 1, -trace 0|1 and -specd")
	}
	gen, err := newGenerator(o.workload, uint64(o.seed))
	if err != nil {
		return nil, err
	}
	seq, err := gen.generate(o.seconds*rateCap[o.workload] + 64)
	if err != nil {
		return nil, err
	}
	setup := setupRequests(o.workload)
	w, err := measure(ctx, o, seq, setup)
	if err != nil {
		return nil, err
	}
	ans := checkAnswers(ctx, seq, w.outs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep := &report{
		Host: host{
			Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			Commit: commit(o.root), Seed: o.seed, Workload: o.workload, Seconds: o.seconds,
		},
		Attempted: len(w.outs),
		Failed:    ans.nFailed(),
		Problems:  ans.problems,
		Values:    map[string]float64{},
	}
	if rep.Failed == 0 && len(ans.problems) > 0 {
		rep.Failed = 1 // a check that fails without blaming one request
	}
	rep.endToEnd(seq, w, ans)
	rep.serverCounters(o.workload, w, ans)
	if o.trace == 1 {
		n := min(len(w.outs), tracedPrefix[o.workload])
		if err := ledger(ctx, o, seq[:n], setup, ans, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// window is what one measured run of specd yielded.
type window struct {
	setups        []float64 // seconds from exec to warm, per boot
	outs          []outcome
	elapsed       time.Duration
	ticks         []float64 // specd's CPU ticks at every slice boundary
	before, after sample
	rss           float64
}

// measure boots and warms specd setupRuns times, drives the last boot
// through the closed loop, samples it around the window, and stops it.
func measure(ctx context.Context, o options, seq, setup []*request) (*window, error) {
	w := &window{}
	var s *specd
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		var err error
		if s, err = startSpecd(ctx, o.specd); err != nil {
			return nil, err
		}
		for _, r := range setup {
			status, body, err := s.post(ctx, r.path, r.body)
			if err != nil || status != 200 {
				s.stop()
				return nil, fmt.Errorf("set-up %s %s: status %d, %v: %.200s", r.path, r.kernel.Name, status, err, body)
			}
		}
		w.setups = append(w.setups, time.Since(t0).Seconds())
	}
	defer s.stop()

	var err, tickErr error
	if w.before, err = s.sample(ctx); err != nil {
		return nil, err
	}
	w.outs, w.elapsed, err = closedLoop(ctx, s, seq, time.Duration(o.seconds)*time.Second, func() {
		t, err := cpuTicks(s.cmd.Process.Pid)
		w.ticks = append(w.ticks, t)
		tickErr = errors.Join(tickErr, err)
	})
	if err = errors.Join(err, tickErr); err != nil {
		return nil, err
	}
	if w.after, err = s.sample(ctx); err != nil {
		return nil, err
	}
	w.rss, err = peakRSSMB(s.cmd.Process.Pid)
	return w, err
}

// endToEnd computes the metrics a specd user sees. Throughput and CPU
// per request are medians over the window's slices. The median latency
// is the geometric mean of each kernel's median: kernels differ in cost
// several-fold, and a median over the whole mix would sit in the gap
// between two kernels' clusters and jump between them from run to run.
// The tail percentile is over every request.
func (rep *report) endToEnd(seq []*request, w *window, ans *answers) {
	v := rep.Values
	v["setup_s"] = median(w.setups)
	window := float64(w.elapsed) / 1e6
	var lat []float64
	perKernel := map[string][]float64{}
	ok := 0
	done := make([]float64, len(w.ticks)-1)
	for i, out := range w.outs {
		ms := float64(out.end-out.start) / 1e6
		if ans.failed[i] {
			ms = window // a failure misses every latency limit
		} else {
			ok++
			if j := int(time.Duration(out.end) / sliceLen); j < len(done) {
				done[j]++
			}
		}
		lat = append(lat, ms)
		perKernel[seq[i].kernel.Name] = append(perKernel[seq[i].kernel.Name], ms)
	}
	var cpuPerReq []float64
	for j, n := range done {
		if n > 0 {
			cpuPerReq = append(cpuPerReq, (w.ticks[j+1]-w.ticks[j])*1000/clockTicksPerSecond/n)
		}
	}
	v["throughput_rps"] = median(done) / sliceLen.Seconds()
	v["cpu_ms_per_req"] = median(cpuPerReq)
	var kernelMedians []float64
	for _, k := range workloads.All() {
		if xs := perKernel[k.Name]; len(xs) > 0 {
			kernelMedians = append(kernelMedians, median(xs))
		}
	}
	v["latency_p50_ms"], _ = geomean(kernelMedians)
	p99, beyond, enough := percentile(lat, 0.99, 10)
	v["latency_p99_ms"] = p99
	if !enough {
		rep.Problems = append(rep.Problems, fmt.Sprintf("p99 over %d samples has only %d beyond it; need 10", len(lat), beyond))
	}
	if ok > 0 {
		v["alloc_kb_per_req"] = (w.after.totalAlloc - w.before.totalAlloc) / 1024 / float64(ok)
	}
	v["peak_rss_mb"] = w.rss
	var err error
	v["sim_cycles_geomean"], v["sim_loads_geomean"], err = simGeomeans(seq, ans, min(len(w.outs), simPrefix))
	if err != nil {
		rep.Problems = append(rep.Problems, err.Error())
	}
}

// serverCounters reads specd's own counters over the window: the
// workload self-check (serve-cold must profile on every request, the
// warm mixes never) and the cache and server ledger entries.
func (rep *report) serverCounters(workload string, w *window, ans *answers) {
	delta := func(match func(series string) bool) float64 {
		d := 0.0
		for k, x := range w.after.metrics {
			if match(k) {
				d += x - w.before.metrics[k]
			}
		}
		return d
	}
	is := func(name string) func(string) bool { return func(s string) bool { return s == name } }
	ok := float64(len(w.outs) - ans.nFailed())
	profRuns := delta(is("specd_profiling_runs_total"))
	switch {
	case workload == serveCold && profRuns < ok:
		rep.Problems = append(rep.Problems, fmt.Sprintf("serve-cold is not cold: %v profiling runs for %v requests", profRuns, ok))
	case workload != serveCold && profRuns != 0:
		rep.Problems = append(rep.Problems, fmt.Sprintf("%s is not warm: %v profiling runs in the window", workload, profRuns))
	}
	v := rep.Values
	n := float64(len(w.outs))
	v["cache.profiling_runs_per_req"] = profRuns / n
	hits, misses := delta(is("specd_cache_mem_hits_total")), delta(is("specd_cache_mem_misses_total"))
	if hits+misses > 0 {
		v["cache.mem_hit_ratio"] = hits / (hits + misses)
	}
	if handled := delta(func(s string) bool { return strings.HasPrefix(s, "specd_phase_seconds_count{") }); handled > 0 {
		v["server.handler_ms"] = delta(func(s string) bool { return strings.HasPrefix(s, "specd_phase_seconds_sum{") }) * 1000 / handled
		var clientMs float64
		for _, out := range w.outs {
			clientMs += float64(out.end-out.start) / 1e6
		}
		v["server.transport_ms"] = clientMs/n - v["server.handler_ms"]
	}
	v["server.rejected"] = delta(func(s string) bool {
		return strings.HasPrefix(s, "specd_requests_total{") && (strings.Contains(s, `code="429"`) || strings.Contains(s, `code="503"`))
	})
}

// setupRequests warm a fresh specd the way each workload needs: the
// warm mix and the sweep evaluate or sweep every kernel once (parse,
// training profile and reference trace are then cached); the cold mix
// compiles every kernel unoptimized, which caches the parse and nothing
// else.
func setupRequests(workload string) []*request {
	var out []*request
	for _, k := range workloads.All() {
		switch workload {
		case serveWarm:
			out = append(out, evalRequest(k, nil, nil))
		case sweep:
			out = append(out, sweepRequest(k))
		case serveCold:
			out = append(out, parseRequest(k))
		}
	}
	return out
}

// simGeomeans returns the generated code's cycles and loads (excluding
// checks), as the geometric mean over kernels of each kernel's geometric
// mean over the first n answers.
func simGeomeans(seq []*request, ans *answers, n int) (cycles, loads float64, err error) {
	perCycles := map[string][]float64{}
	perLoads := map[string][]float64{}
	for i := 0; i < n; i++ {
		if ans.failed[i] {
			continue
		}
		k := seq[i].kernel.Name
		if e := ans.evals[i]; e != nil {
			c := e.Result.Counters
			perCycles[k] = append(perCycles[k], float64(c.Cycles))
			perLoads[k] = append(perLoads[k], float64(c.LoadsRetired-c.CheckLoads))
		}
		if s := ans.sweeps[i]; s != nil {
			for _, p := range s.Points {
				perCycles[k] = append(perCycles[k], float64(p.Cycles))
			}
			perLoads[k] = ans.sweepLoads[k]
		}
	}
	var kc, kl []float64
	for _, w := range workloads.All() {
		if len(perCycles[w.Name]) == 0 {
			continue
		}
		c, ok1 := geomean(perCycles[w.Name])
		l, ok2 := geomean(perLoads[w.Name])
		if !ok1 || !ok2 {
			return 0, 0, fmt.Errorf("%s: a run reported zero cycles or loads", w.Name)
		}
		kc, kl = append(kc, c), append(kl, l)
	}
	c, ok1 := geomean(kc)
	l, ok2 := geomean(kl)
	if !ok1 || !ok2 {
		return 0, 0, errors.New("no answered evaluation or sweep to take sim metrics from")
	}
	return c, l, nil
}

// ledger runs the in-process passes over the traced prefix: an
// untraced pass through the shipped entry points, the traced pass
// through the hand-driven pipeline, and the fidelity gate between the
// traced builds and both the shipped pipeline and specd's answers.
func ledger(ctx context.Context, o options, prefix, setup []*request, ans *answers, rep *report) error {
	for _, r := range setup {
		if err := serveInProcess(ctx, r); err != nil {
			return fmt.Errorf("in-process set-up: %w", err)
		}
	}
	runtime.GC()
	t0 := time.Now()
	for _, r := range prefix {
		if err := serveInProcess(ctx, r); err != nil {
			return fmt.Errorf("untraced replay: %w", err)
		}
	}
	untraced := time.Since(t0)

	tr := newTracer()
	p := newPipeline(tr)
	for _, r := range setup {
		if err := p.warm(r); err != nil {
			return fmt.Errorf("traced set-up: %w", err)
		}
	}
	runtime.GC()
	tr.on = true
	traced := make([]*tracedOutcome, len(prefix))
	t0 = time.Now()
	for i, r := range prefix {
		tr.req = int32(i)
		var err error
		if traced[i], err = p.replay(r); err != nil {
			return fmt.Errorf("traced replay of request %d: %w", i, err)
		}
	}
	tracedWall := time.Since(t0)
	tr.on = false

	for i, r := range prefix {
		if ans.failed[i] {
			continue
		}
		if err := fidelity(ctx, r, traced[i], ans, i); err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("fidelity, request %d (%s %s): %v", i, r.path, r.kernel.Name, err))
			rep.Failed++
		}
	}

	n := float64(len(prefix))
	v := rep.Values
	for span, d := range tr.selfTimes() {
		v[timeMetric(span)] = float64(d) / 1e6 / n
	}
	for name, c := range tr.counts {
		v[name] = c / n
	}
	if c := tr.counts["machine.check_loads"]; c > 0 {
		v["machine.check_hit_ratio"] = tr.counts["machine.check_hits"] / c
	}
	delete(v, "machine.check_loads")
	delete(v, "machine.check_hits")
	v["bench.trace_overhead"] = tracedWall.Seconds() / untraced.Seconds()
	v["bench.traced_requests"] = n
	if o.out != "" {
		if err := tr.write(filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))); err != nil {
			return err
		}
	}
	return nil
}

// serveInProcess runs one request through the entry points specd's
// handler calls, untraced.
func serveInProcess(ctx context.Context, r *request) error {
	var err error
	switch {
	case r.eval != nil:
		_, err = experiments.RunEvalCtx(ctx, *r.eval)
	case r.compile != nil:
		_, err = repro.CompileCtx(ctx, r.compile.Source, compileConfig(r.compile))
	case r.sweep != nil:
		_, err = experiments.RunMachineSweepCtx(ctx, r.sweep.Workload, r.sweep.Configs, r.sweep.Workers)
	}
	return err
}

// fidelity checks one traced build against the shipped pipeline (same
// code fingerprint as repro.CompileCtx) and the traced run's machine
// counters and optimizer statistics against specd's answer.
func fidelity(ctx context.Context, r *request, t *tracedOutcome, ans *answers, i int) error {
	src, cfg, err := buildFor(r)
	if err != nil {
		return err
	}
	c, err := repro.CompileCtx(ctx, src, cfg)
	if err != nil {
		return err
	}
	if c.Code.Fingerprint() != t.code.Fingerprint() {
		return errors.New("traced build's code fingerprint differs from repro.CompileCtx's")
	}
	same := func(a, b any) bool {
		x, _ := json.Marshal(a)
		y, _ := json.Marshal(b)
		return string(x) == string(y)
	}
	switch {
	case r.eval != nil:
		e := ans.evals[i]
		if !same(e.Result, t.results[0]) || !same(e.Stats, t.stats) {
			return errors.New("traced machine counters or optimizer statistics differ from specd's answer")
		}
	case r.compile != nil:
		cr := ans.compiles[i]
		if !same(cr.Stats, t.stats) || !same(cr.Harden, t.harden) {
			return errors.New("traced optimizer statistics or hardening report differ from specd's answer")
		}
	case r.sweep != nil:
		pts := ans.sweeps[i].Points
		if len(pts) != len(t.results) {
			return errors.New("traced sweep has a different grid")
		}
		for j, p := range pts {
			c := t.results[j].Counters
			if p.Cycles != c.Cycles || p.FailedChecks != c.FailedChecks || p.Evictions != c.ALATEvictions {
				return fmt.Errorf("grid point %d: traced counters differ from specd's answer", j)
			}
		}
	}
	return nil
}

// commit names the code measured: the git commit when the checkout is
// a repository, otherwise a hash of its Go sources and kernels.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(path); !d.IsDir() && (ext == ".go" || ext == ".mod" || ext == ".mc") {
			if data, err := os.ReadFile(path); err == nil {
				rel, _ := filepath.Rel(root, path)
				fmt.Fprintf(h, "%s %d\n", rel, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))
}

func (r *report) print(traced bool) {
	h := r.Host
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d workload=%s seconds=%d\n",
		h.Nproc, h.GOMAXPROCS, h.Go, h.Commit, h.Seed, h.Workload, h.Seconds)
	for _, m := range endToEnd {
		fmt.Printf("%-28s %14.6g %s\n", m.name, r.Values[m.name], m.unit)
	}
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%-28s %14.6g (%d failed of %d attempted)\n", "error_rate", errRate, r.Failed, r.Attempted)
	if traced {
		for _, m := range perLayer {
			fmt.Printf("%-28s %14.6g %-6s moves %s\n", m.name, r.Values[m.name], m.unit, m.moves)
		}
	}
	for _, p := range r.Problems {
		fmt.Println("problem:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, m := range defs {
		metrics[m.name] = value{r.Values[m.name], m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.Problems) == 0, r.Attempted, r.Failed, metrics})
	fmt.Println(string(line))
}

func (r *report) save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
