package adaptive

import (
	"context"
	"encoding/json"
	"log"
	"sort"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/cache"
	"repro/internal/machine"
)

// Config configures a Manager for one served workload.
type Config struct {
	// Source is the workload's MiniC source; re-tier verification
	// compiles it with the new tier vector before publishing.
	Source string
	// Build is the serving compile config the tier overrides apply to
	// (typically the same config the server evaluates the workload
	// under, so the verified artifact is exactly the served one).
	Build repro.Config
	// Policy tunes the monitor; zero fields take defaults.
	Policy Policy
	// OnTransition, when set, is called once per published tier change,
	// outside the manager's locks and after the new assignment became
	// visible to Snapshot.
	OnTransition func(Transition)
	// Logger receives recompile/revert notes; nil silences them.
	Logger *log.Logger
}

// Assignment is one published tier vector. It is immutable after
// publication: readers snapshot it with Manager.Snapshot, serve
// evaluations under its Tiers, and report the observed counters back
// with its Version so observations from a superseded assignment are
// discarded instead of polluting the next decision.
type Assignment struct {
	// Version increments on every decision the manager commits to
	// (including reverts), not merely on publications.
	Version uint64
	// Tiers maps function name -> tier name for every function not at
	// TierAggressive; nil means the whole program serves un-overridden.
	Tiers map[string]string
}

// Manager runs the monitor/policy/recompiler loop for one workload.
// Observe folds counters in and may decide transitions; a background
// single-flight recompiler verifies the new tier vector with specheck
// (via VerifyPasses) and hot-swaps the assignment pointer; evaluations
// concurrent with a swap see the old or the new assignment, never a
// mix.
type Manager struct {
	cfg       Config
	pol       Policy
	buildJSON []byte

	asn atomic.Pointer[Assignment]

	mu      sync.Mutex
	cond    *sync.Cond
	states  map[string]*fnState
	version uint64 // decision clock; observations against older versions are stale
	busy    bool   // a recompile goroutine is in flight
	closed  bool
	pending []Transition // decided but not yet handed to a recompile
}

// NewManager builds a manager publishing the all-aggressive assignment
// at version 0.
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:    cfg,
		pol:    cfg.Policy.withDefaults(),
		states: make(map[string]*fnState),
	}
	m.cond = sync.NewCond(&m.mu)
	m.buildJSON, _ = json.Marshal(cfg.Build)
	m.asn.Store(&Assignment{})
	return m
}

// Snapshot returns the currently published assignment. The returned
// value is shared and must not be mutated.
func (m *Manager) Snapshot() *Assignment { return m.asn.Load() }

// Observe folds one evaluation's per-function counters into the
// monitor. version must be the Version of the assignment the
// evaluation was served under; observations against a superseded
// assignment are dropped, so the windows only ever mix counters
// produced by one tier vector. Transitions the policy decides here are
// compiled and published asynchronously — use Quiesce to wait.
func (m *Manager) Observe(version uint64, perFn map[string]machine.FuncCounters) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || version != m.version {
		return
	}
	// Walk the union of reporting functions and known monitor states:
	// a function demoted to TierNone retires no checks and would
	// otherwise never tick its eval window toward re-promotion.
	names := make([]string, 0, len(perFn)+len(m.states))
	for fn := range perFn {
		names = append(names, fn)
	}
	for fn := range m.states {
		if _, ok := perFn[fn]; !ok {
			names = append(names, fn)
		}
	}
	sort.Strings(names)
	decided := false
	for _, fn := range names {
		s := m.states[fn]
		if s == nil {
			s = &fnState{}
			m.states[fn] = s
		}
		c := perFn[fn]
		if tr, ok := s.observe(m.pol, c.CheckLoads, c.FailedChecks); ok {
			tr.Fn = fn
			m.pending = append(m.pending, tr)
			decided = true
		}
	}
	if !decided {
		return
	}
	m.version++
	m.maybeRecompileLocked()
}

// maybeRecompileLocked hands the pending transitions to a background
// recompile unless one is already in flight; the in-flight one will
// respawn on completion (coalescing every decision made meanwhile into
// a single rebuild).
func (m *Manager) maybeRecompileLocked() {
	if m.busy || m.closed || len(m.pending) == 0 {
		return
	}
	m.busy = true
	trans := m.pending
	m.pending = nil
	tiers := make(map[string]string)
	for fn, s := range m.states {
		if s.tier != TierAggressive {
			tiers[fn] = s.tier.String()
		}
	}
	if len(tiers) == 0 {
		tiers = nil
	}
	go m.recompile(m.version, tiers, trans)
}

// recompile verifies the tier vector and publishes it (or reverts the
// monitor to the still-published assignment if verification fails, so
// one unverifiable vector cannot wedge the ladder).
func (m *Manager) recompile(version uint64, tiers map[string]string, trans []Transition) {
	err := m.verifyTiers(tiers)

	m.mu.Lock()
	if err != nil {
		pub := m.asn.Load()
		for fn, s := range m.states {
			t := TierAggressive
			if name, ok := pub.Tiers[fn]; ok {
				if tt, ok2 := TierByName(name); ok2 {
					t = tt
				}
			}
			s.tier = t
		}
		m.pending = nil
		m.version++
		m.asn.Store(&Assignment{Version: m.version, Tiers: pub.Tiers})
		m.logf("adaptive: re-tier rejected, kept [%s]: %v", tierVector(pub.Tiers), err)
		trans = nil
	} else {
		m.asn.Store(&Assignment{Version: version, Tiers: tiers})
		m.logf("adaptive: published v%d [%s]", version, tierVector(tiers))
	}
	cb := m.cfg.OnTransition
	m.mu.Unlock()

	// report the transitions before the recompile counts as finished, so
	// a Quiesce caller sees their effects (specd's transition counters)
	if cb != nil {
		for _, tr := range trans {
			cb(tr)
		}
	}

	m.mu.Lock()
	m.busy = false
	m.maybeRecompileLocked()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// verifyTiers compiles the workload at the tier vector with specheck
// enabled. A content-addressed cert (source, build config, tier
// vector) memoizes the outcome, so the fleet's shared cache lets one
// replica's verification admit the vector everywhere.
func (m *Manager) verifyTiers(tiers map[string]string) error {
	key := cache.KeyOf([]byte("adaptive-cert"), []byte(m.cfg.Source), m.buildJSON, []byte(tierVector(tiers)))
	if _, ok := repro.CachePeekBytes(key); ok {
		return nil
	}
	cfg := m.cfg.Build
	fnSpec, err := FnSpecs(tiers)
	if err != nil {
		return err
	}
	cfg.FnSpec = fnSpec
	cfg.VerifyPasses = true
	c, err := repro.CompileCtx(context.Background(), m.cfg.Source, cfg)
	if err != nil {
		return err
	}
	if c.ProfileErr != nil {
		return c.ProfileErr
	}
	repro.CachePutBytes(key, []byte{1})
	return nil
}

// Quiesce blocks until no recompile is in flight, so every decision
// made by earlier Observe calls has been published (or reverted) and
// reported to OnTransition.
func (m *Manager) Quiesce() {
	m.mu.Lock()
	for m.busy {
		m.cond.Wait()
	}
	m.mu.Unlock()
}

// Close stops the manager: pending decisions are dropped, the
// in-flight recompile (if any) is waited out, and later Observe calls
// are ignored. The last published assignment stays readable.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.pending = nil
	for m.busy {
		m.cond.Wait()
	}
	m.mu.Unlock()
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logger != nil {
		m.cfg.Logger.Printf(format, args...)
	}
}
