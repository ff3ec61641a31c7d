package machine

import (
	"errors"
	"fmt"
	"io"
	"math"
)

// Replay is the timing engine of the record-and-replay split: it walks
// a recorded Trace over the static program and recomputes Counters and
// cycles under a Config, without interpreting — no register file, no
// memory image, no value computation. Control flow follows recorded
// branch directions, speculative faults follow recorded fault bits, and
// ALAT hit/miss is re-simulated from the recorded event stream with the
// same alat implementation the functional engine uses (hit/miss depends
// on ALATSize, so it cannot be recorded).
//
// Three cases, chosen per Config:
//
//   - Limits at least as generous as the recorded run's: every counter
//     except pipelined Cycles is a function of the recorded
//     latency-class counts and the per-check hit/miss outcomes of one
//     O(events) walk of the ALAT event stream per capacity (alatWalk,
//     memoized on the trace), so the serial model never touches the
//     instruction stream.
//   - Pipelined model: Cycles is the final clock of the scoreboard walk
//     (timing.go), which needs per-instruction operand availability.
//     All pipelined configs of a batch share one walk, one lane per
//     distinct timing.
//   - Tightened MaxSteps/MaxCallDepth: the recorded run went past the
//     limit, so direct execution faults, and the walk reproduces that
//     fault at the same step with the same error.
//
// Either way the result is byte-identical to direct execution. The one
// non-negotiable is StackSlots: the stack size determines concrete
// addresses, so a trace can only be re-timed under the layout it was
// recorded with (ErrTraceMismatch otherwise — callers fall back to
// direct Run).
//
// A Trace is immutable after Record; concurrent replays of the same
// trace are safe, each holding private stream cursors.

// ErrTraceMismatch reports a Config whose memory layout differs from
// the one the trace was recorded under.
var ErrTraceMismatch = errors.New("machine: trace recorded under a different memory layout")

// errTraceUnderrun reports a truncated or mismatched trace (never
// produced by Record on the program it recorded).
var errTraceUnderrun = errors.New("machine: trace underrun (corrupt trace or mismatched program)")

// errTraceLimits reports a trace whose event streams disagree with the
// step count or call depth its header records (never produced by
// Record).
var errTraceLimits = errors.New("machine: corrupt trace: events disagree with the recorded steps or depth")

// ReplayBatch re-times one recorded trace under every Config in cfgs,
// returning results index-aligned with cfgs, each byte-identical to
// Run(prog, args, cfgs[i], nil) for the (program, input) the trace
// records. The whole grid costs at most one instruction walk:
// pipelined configs become lanes of a single walk, and configs with
// identical timing share a lane.
//
// A config whose StackSlots differs from the trace's returns
// ErrTraceMismatch (wrapped), and a config with tightened limits
// returns its fault; either aborts the batch with the error of the
// lowest-index such config, as a serial loop over Replay would.
func ReplayBatch(prog *Program, t *Trace, cfgs []Config) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	var pipelined []Config
	var at []int // index in cfgs of each pipelined config
	for i, cfg := range cfgs {
		cfg = cfg.withDefaults()
		if cfg.StackSlots != t.StackSlots {
			return nil, fmt.Errorf("%w: recorded with %d stack slots, config has %d",
				ErrTraceMismatch, t.StackSlots, cfg.StackSlots)
		}
		if cfg.MaxSteps < t.Steps || cfg.MaxCallDepth < t.MaxDepth {
			ln, _ := newLanes(t, []Config{cfg})
			if _, err := walk(prog, t, ln, cfg.MaxSteps, cfg.MaxCallDepth); err != nil {
				return nil, err
			}
			// the walk stayed inside limits the recorded run exceeded
			return nil, errTraceLimits
		}
		results[i] = &Result{Ret: t.Ret, Output: t.Output, Counters: replaySerial(t, cfg), PerFunc: t.perFuncAt(cfg.ALATSize)}
		if cfg.Pipelined {
			pipelined = append(pipelined, cfg)
			at = append(at, i)
		}
	}
	if len(pipelined) == 0 {
		return results, nil
	}
	ln, laneOf := newLanes(t, pipelined)
	// every lane's limits are at least the recorded run's, which the
	// walk enforces on its own
	clocks, err := walk(prog, t, ln, math.MaxInt64, math.MaxInt)
	if err != nil {
		return nil, err
	}
	for j, i := range at {
		results[i].Counters.Cycles = clocks[laneOf[j]]
	}
	return results, nil
}

// Replay re-times a recorded trace under cfg. See the package comment
// above for the contract; the result is byte-identical to
// Run(prog, args, cfg, out) for the (program, input) the trace records.
func Replay(prog *Program, t *Trace, cfg Config, out io.Writer) (*Result, error) {
	res, err := ReplayBatch(prog, t, []Config{cfg})
	if err != nil {
		return nil, err
	}
	if out != nil {
		if _, err := io.WriteString(out, t.Output); err != nil {
			return nil, err
		}
		res[0].Output = ""
	}
	return res[0], nil
}

// alatSummary is the configuration-independent outcome of replaying the
// ALAT event stream against a table of a given capacity: which checks
// missed (by latency class) and how many entries were evicted. Latency
// fields never influence it, so one summary serves every latency point
// of a sweep at that ALAT size.
type alatSummary struct {
	missInt   int64
	missFP    int64
	evictions int64

	// missBits has one bit per check event in program order (set =
	// miss). The serial path only needs the totals above; the batched
	// pipelined walk needs each check's outcome to pick that event's
	// latency, and reading a precomputed bit is far cheaper than
	// re-simulating a table per distinct capacity inside the
	// instruction walk.
	missBits []uint64
	checks   int64

	// perFn tallies events per function (indexed by the trace's
	// FnNames ids). Inserts and checks are capacity-independent;
	// failures are not, which is why the tally lives in the summary
	// rather than the trace.
	perFn []fnTally
}

// fnTally is one function's speculation-event tally within a summary.
type fnTally struct {
	checks int64
	failed int64
	adv    int64
}

func (s *alatSummary) miss(ord int64) bool {
	return s.missBits[ord>>6]&(1<<uint(ord&63)) != 0
}

// alatWalk replays just the recorded ALAT event stream against a table
// of the given capacity, memoized per capacity on the trace.
func (t *Trace) alatWalk(size int) alatSummary {
	if v, ok := t.alatMemo.Load(size); ok {
		return v.(alatSummary)
	}
	a := newALAT(size)
	s := alatSummary{
		missBits: make([]uint64, (t.counts[cCheckInt]+t.counts[cCheckFP]+63)/64),
		perFn:    make([]fnTally, len(t.FnNames)),
	}
	// iterate the columnar chunks directly — the walk touches every
	// event, so the per-event cursor bookkeeping of opReader is pure
	// overhead here
	remaining := t.ops.n
	for ci := 0; remaining > 0; ci++ {
		end := int64(opChunkLen)
		if remaining < end {
			end = remaining
		}
		remaining -= end
		kinds, regs, frames, addrs, fns := t.ops.kinds[ci], t.ops.regs[ci], t.ops.frames[ci], t.ops.addrs[ci], t.ops.fns[ci]
		for off := 0; off < int(end); off++ {
			switch kinds[off] {
			case opInval:
				a.invalidate(int(addrs[off]))
			case opInsert:
				a.insert(frames[off], int(regs[off]), int(addrs[off]))
				s.perFn[fns[off]].adv++
			default: // opCheckInt, opCheckFP
				ord := s.checks
				s.checks++
				tally := &s.perFn[fns[off]]
				tally.checks++
				if !a.check(frames[off], int(regs[off]), int(addrs[off])) {
					s.missBits[ord>>6] |= 1 << uint(ord&63)
					tally.failed++
					if kinds[off] == opCheckFP {
						s.missFP++
					} else {
						s.missInt++
					}
					a.insert(frames[off], int(regs[off]), int(addrs[off]))
				}
			}
		}
	}
	s.evictions = a.evictions
	t.alatMemo.Store(size, s)
	return s
}

// perFuncAt builds the per-function counter map of a replay at the
// given ALAT size from the memoized event-walk summary, following the
// same convention as direct execution: an entry iff the function
// retired at least one advanced or check load, nil when none did.
func (t *Trace) perFuncAt(size int) map[string]FuncCounters {
	s := t.alatWalk(size)
	var out map[string]FuncCounters
	for id, tally := range s.perFn {
		if tally.checks == 0 && tally.adv == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]FuncCounters)
		}
		out[t.FnNames[id]] = FuncCounters{
			CheckLoads:   tally.checks,
			FailedChecks: tally.failed,
			AdvLoads:     tally.adv,
		}
	}
	return out
}

// replaySerial re-times the trace under the serial model without
// touching the instruction stream: every counter except the
// ALAT-dependent ones is a function of the recorded class counts, and
// the ALAT-dependent ones (check hits, evictions) come from the
// memoized ALAT event walk at cfg.ALATSize.
func replaySerial(t *Trace, cfg Config) Counters {
	s := t.alatWalk(cfg.ALATSize)
	failed := s.missInt + s.missFP

	c := &t.counts
	checks := c[cCheckInt] + c[cCheckFP]
	checkCycles := (checks-failed)*int64(cfg.CheckHitLat) +
		s.missInt*int64(cfg.IntLoadLat+cfg.CheckMissPen) +
		s.missFP*int64(cfg.FPLoadLat+cfg.CheckMissPen)
	unit := t.Steps - c[cMul] - c[cDivMod] - c[cFPArith] - c[cFPDiv] -
		c[cIntLoad] - c[cFPLoad] - checks - c[cStore] - c[cHalt] - c[cFence]
	memCycles := c[cIntLoad]*int64(cfg.IntLoadLat) +
		c[cFPLoad]*int64(cfg.FPLoadLat) +
		c[cStore]*int64(cfg.StoreLat) +
		checkCycles
	return Counters{
		Cycles: unit +
			c[cMul]*int64(cfg.IntMulLat) +
			c[cDivMod]*int64(cfg.IntDivLat) +
			c[cFPArith]*int64(cfg.FPArithLat) +
			c[cFPDiv]*int64(cfg.FPDivLat) +
			c[cFence]*int64(cfg.FenceLat) +
			t.Frames*int64(cfg.CallOverhead) +
			memCycles,
		DataAccessCycles: memCycles,
		InstrsRetired:    t.Steps,
		LoadsRetired:     c[cIntLoad] + c[cFPLoad] + checks,
		CheckLoads:       checks,
		FailedChecks:     failed,
		AdvLoads:         c[cAdv],
		SpecLoads:        c[cSpec],
		SpecLoadFaults:   c[cSpecFault],
		Stores:           c[cStore],
		ALATEvictions:    s.evictions,
	}
}
