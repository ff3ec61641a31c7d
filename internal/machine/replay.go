package machine

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/addrspace"
)

// Replay is the timing engine of the record-and-replay split: it walks
// a recorded Trace over the static program and recomputes Counters and
// cycles under cfg, without interpreting — no register file, no memory
// image, no value computation. Control flow follows recorded branch
// directions, speculative faults follow recorded fault bits, and ALAT
// hit/miss is re-simulated from the recorded event stream with the same
// alat implementation the functional engine uses (hit/miss depends on
// cfg.ALATSize, so it cannot be recorded).
//
// Two re-timing strategies, chosen per Config:
//
//   - Serial model, limits at least as large as the recorded run's: the
//     fast path. Serial cycles are a linear function of the recorded
//     latency-class counts plus the per-check hit/miss outcomes, so the
//     replayer walks only the ALAT event stream — O(events), typically
//     orders of magnitude shorter than the instruction stream.
//   - Pipelined model, or tightened MaxSteps/MaxCallDepth: the full
//     instruction walk. The scoreboard needs per-instruction operand
//     availability, and resource faults must fire at exactly the step
//     direct execution faults at, with the same error.
//
// Either way the result is byte-identical to direct execution. The one
// non-negotiable is StackSlots: the stack size determines concrete
// addresses, so a trace can only be re-timed under the layout it was
// recorded with (ErrTraceMismatch otherwise — callers fall back to
// direct Run).
//
// A Trace is immutable after Record; concurrent Replays of the same
// trace are safe, each holding private stream cursors.

// ErrTraceMismatch reports a Config whose memory layout differs from
// the one the trace was recorded under.
var ErrTraceMismatch = errors.New("machine: trace recorded under a different memory layout")

// errTraceUnderrun reports a truncated or mismatched trace (never
// produced by Record on the program it recorded).
var errTraceUnderrun = errors.New("machine: trace underrun (corrupt trace or mismatched program)")

// replayFrame is one activation on the replayer's call stack.
type replayFrame struct {
	f       *FuncCode
	pc      int
	frameID int64
	base    int     // frame base address
	ready   []int64 // pipelined scoreboard (nil under the serial model)
}

type replayer struct {
	prog *Program
	cfg  Config
	bits bitReader
	ops  opReader
	alat *alat

	frames  []replayFrame
	mem     addrspace.Space // frame layout only; replay touches no data
	frameID int64

	steps int64
	clock int64

	ctr   Counters
	perFn map[*FuncCode]*FuncCounters
}

// fnCtr returns (creating on first touch) f's per-function tally,
// mirroring the functional engine's lazy-entry convention.
func (r *replayer) fnCtr(f *FuncCode) *FuncCounters {
	c := r.perFn[f]
	if c == nil {
		if r.perFn == nil {
			r.perFn = make(map[*FuncCode]*FuncCounters)
		}
		c = &FuncCounters{}
		r.perFn[f] = c
	}
	return c
}

func (r *replayer) fault(format string, a ...any) error {
	return fmt.Errorf("machine: %s", fmt.Sprintf(format, a...))
}

// Replay re-times a recorded trace under cfg. See the package comment
// above for the contract; the result is byte-identical to
// Run(prog, args, cfg, out) for the (program, input) the trace records.
func Replay(prog *Program, t *Trace, cfg Config, out io.Writer) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.StackSlots != t.StackSlots {
		return nil, fmt.Errorf("%w: recorded with %d stack slots, config has %d",
			ErrTraceMismatch, t.StackSlots, cfg.StackSlots)
	}
	var ctr Counters
	var perFn map[string]FuncCounters
	if !cfg.Pipelined && cfg.MaxSteps >= t.Steps && cfg.MaxCallDepth >= t.MaxDepth {
		// limits at least as generous as the recorded (completed) run
		// cannot fault, so the aggregate path is exact
		ctr = replaySerial(t, cfg)
		perFn = t.perFuncAt(cfg.ALATSize)
	} else {
		r := &replayer{
			prog: prog,
			cfg:  cfg,
			bits: bitReader{t: &t.bits},
			ops:  opReader{t: &t.ops},
			alat: newALAT(cfg.ALATSize),
			mem:  addrspace.New(prog.GlobSize, cfg.StackSlots, nil),
		}
		mainFn, ok := prog.Funcs["main"]
		if !ok {
			return nil, errors.New("machine: no main function")
		}
		if err := r.push(mainFn); err != nil {
			return nil, err
		}
		if err := r.walk(); err != nil {
			return nil, err
		}
		if cfg.Pipelined {
			r.ctr.Cycles = r.clock
		}
		r.ctr.ALATEvictions = r.alat.evictions
		ctr = r.ctr
		perFn = perFuncMap(r.perFn)
	}
	res := &Result{Ret: t.Ret, Counters: ctr, PerFunc: perFn}
	if out == nil {
		res.Output = t.Output
	} else if _, err := io.WriteString(out, t.Output); err != nil {
		return nil, err
	}
	return res, nil
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

// push enters a function activation, mirroring the entry sequence of
// vm.call: depth check, stack check, call overhead, scoreboard init.
func (r *replayer) push(f *FuncCode) error {
	if len(r.frames) >= r.cfg.MaxCallDepth {
		return r.fault("call depth exceeded in %s", f.Name)
	}
	base, ok := r.mem.PushFrame(f.FrameSize)
	if !ok {
		return r.fault("stack overflow in %s", f.Name)
	}
	r.frameID++
	fr := replayFrame{f: f, frameID: r.frameID, base: base}
	if r.cfg.Pipelined {
		r.clock += int64(r.cfg.CallOverhead)
		fr.ready = make([]int64, f.NumRegs)
		for i := range fr.ready {
			fr.ready[i] = r.clock
		}
	}
	r.ctr.Cycles += int64(r.cfg.CallOverhead)
	r.frames = append(r.frames, fr)
	return nil
}

func (r *replayer) nextBit() (bool, error) {
	bit, ok := r.bits.next()
	if !ok {
		return false, errTraceUnderrun
	}
	return bit, nil
}

func (r *replayer) nextAddr() (int, error) {
	op, ok := r.ops.next()
	if !ok {
		return 0, errTraceUnderrun
	}
	return int(op.addr), nil
}

// issueTime is the scoreboard stall computation of the pipelined model:
// the cycle at which ins can issue, given the current clock and the
// frame's register-ready times. It visits the same source registers as
// forEachSrc but without the per-register indirect call — this is the
// replay walk's hottest code.
func issueTime(ins *Instr, ready []int64, clock int64) int64 {
	issueT := clock
	switch ins.Op {
	case OpMovI, OpLEA, OpNop, OpHalt, OpBr:
		return issueT
	case OpFence:
		// scoreboard drain: waits for every in-flight result
		for _, v := range ready {
			if v > issueT {
				issueT = v
			}
		}
	case OpSt, OpStF:
		if v := ready[ins.Rd]; v > issueT { // address
			issueT = v
		}
		if v := ready[ins.Rs]; v > issueT { // value
			issueT = v
		}
	case OpLdC, OpLdFC:
		if v := ready[ins.Rs]; v > issueT { // address
			issueT = v
		}
		if v := ready[ins.Rd]; v > issueT { // value being validated
			issueT = v
		}
	case OpCall, OpPrint:
		for _, reg := range ins.ArgRegs {
			if v := ready[reg]; v > issueT {
				issueT = v
			}
		}
	case OpBeqz, OpBnez, OpArg, OpRet:
		if ins.Rs >= 0 {
			if v := ready[ins.Rs]; v > issueT {
				issueT = v
			}
		}
	case OpMov, OpNeg, OpNot, OpI2F, OpF2I, OpFNeg,
		OpLd, OpLdF, OpLdA, OpLdFA, OpLdS, OpLdFS, OpLdSA, OpLdFSA, OpAlloc:
		if v := ready[ins.Rs]; v > issueT {
			issueT = v
		}
	default: // three-register ALU
		if v := ready[ins.Rs]; v > issueT {
			issueT = v
		}
		if v := ready[ins.Rt]; v > issueT {
			issueT = v
		}
	}
	return issueT
}

// walk replays the dynamic instruction stream. The structure mirrors
// vm.call's interpreter loop: any change to the cycle accounting there
// must be reflected here (the differential tests pin the equivalence).
//
// Hot state (clock, cycle and retirement tallies, latencies) lives in
// locals: the loop runs once per dynamic instruction, where per-field
// struct traffic is measurable. The locals are flushed back into the
// replayer around push (which charges call overhead against the real
// clock and counter) and at the final return; error paths may leave the
// tallies stale because a faulted replay's counters are discarded.
func (r *replayer) walk() error {
	pipelined := r.cfg.Pipelined
	maxSteps := r.cfg.MaxSteps
	steps := r.steps
	clock := r.clock
	var cycles, instrs int64
	latIntMul := int64(r.cfg.IntMulLat)
	latIntDiv := int64(r.cfg.IntDivLat)
	latFPArith := int64(r.cfg.FPArithLat)
	latFPDiv := int64(r.cfg.FPDivLat)
	latIntLoad := int64(r.cfg.IntLoadLat)
	latFPLoad := int64(r.cfg.FPLoadLat)
	latCheckHit := int64(r.cfg.CheckHitLat)
	latStore := int64(r.cfg.StoreLat)
	latFence := int64(r.cfg.FenceLat)
	missPen := int64(r.cfg.CheckMissPen)
	for {
		fr := &r.frames[len(r.frames)-1]
		f := fr.f
		steps++
		if steps > maxSteps {
			return r.fault("step limit exceeded")
		}
		if fr.pc < 0 || fr.pc >= len(f.Instrs) {
			return r.fault("pc out of range in %s", f.Name)
		}
		ins := &f.Instrs[fr.pc]
		instrs++
		lat := int64(1)
		var issueT int64
		if pipelined {
			issueT = issueTime(ins, fr.ready, clock)
		}
		switch ins.Op {
		case OpMul:
			lat = latIntMul
		case OpDiv, OpMod:
			lat = latIntDiv
		case OpFAdd, OpFSub, OpFMul, OpFNeg:
			lat = latFPArith
		case OpFDiv:
			lat = latFPDiv
		case OpFence:
			lat = latFence

		case OpLd, OpLdF, OpLdA, OpLdFA:
			if ins.Op == OpLdF || ins.Op == OpLdFA {
				lat = latFPLoad
			} else {
				lat = latIntLoad
			}
			r.ctr.LoadsRetired++
			r.ctr.DataAccessCycles += lat
			if ins.Op == OpLdA || ins.Op == OpLdFA {
				r.ctr.AdvLoads++
				r.fnCtr(f).AdvLoads++
				addr, err := r.nextAddr()
				if err != nil {
					return err
				}
				r.alat.insert(fr.frameID, ins.Rd, addr)
			}

		case OpLdC, OpLdFC:
			r.ctr.LoadsRetired++
			r.ctr.CheckLoads++
			fctr := r.fnCtr(f)
			fctr.CheckLoads++
			addr, err := r.nextAddr()
			if err != nil {
				return err
			}
			if r.alat.check(fr.frameID, ins.Rd, addr) {
				lat = latCheckHit
			} else {
				r.ctr.FailedChecks++
				fctr.FailedChecks++
				if ins.Op == OpLdFC {
					lat = latFPLoad + missPen
				} else {
					lat = latIntLoad + missPen
				}
				r.alat.insert(fr.frameID, ins.Rd, addr)
			}
			r.ctr.DataAccessCycles += lat

		case OpLdS, OpLdFS, OpLdSA, OpLdFSA:
			r.ctr.LoadsRetired++
			r.ctr.SpecLoads++
			deferred, err := r.nextBit()
			if err != nil {
				return err
			}
			if deferred {
				r.ctr.SpecLoadFaults++
			} else if ins.Op == OpLdSA || ins.Op == OpLdFSA {
				r.ctr.AdvLoads++
				r.fnCtr(f).AdvLoads++
				addr, err := r.nextAddr()
				if err != nil {
					return err
				}
				r.alat.insert(fr.frameID, ins.Rd, addr)
			}
			if ins.Op == OpLdFS || ins.Op == OpLdFSA {
				lat = latFPLoad
			} else {
				lat = latIntLoad
			}
			r.ctr.DataAccessCycles += lat

		case OpSt, OpStF:
			addr, err := r.nextAddr()
			if err != nil {
				return err
			}
			r.alat.invalidate(addr)
			lat = latStore
			r.ctr.Stores++
			r.ctr.DataAccessCycles += lat

		case OpBr:
			cycles += lat
			if pipelined {
				clock = issueT + 1
			}
			fr.pc = ins.Target
			continue

		case OpBeqz, OpBnez:
			cycles += lat
			if pipelined {
				clock = issueT + 1
			}
			taken, err := r.nextBit()
			if err != nil {
				return err
			}
			if taken {
				fr.pc = ins.Target
			} else {
				fr.pc++
			}
			continue

		case OpCall:
			callee, ok := r.prog.Funcs[ins.Fn]
			if !ok {
				return r.fault("call to unknown function %q", ins.Fn)
			}
			if pipelined {
				clock = issueT + 1
			}
			cycles += lat
			fr.pc++ // resume point after the callee returns
			// push charges call overhead against the real clock
			r.clock = clock
			if err := r.push(callee); err != nil {
				return err
			}
			clock = r.clock
			continue

		case OpRet, OpHalt:
			if ins.Op == OpRet {
				cycles += lat
				if pipelined {
					clock = issueT + 1
				}
			}
			r.mem.PopFrame(fr.base)
			r.frames = r.frames[:len(r.frames)-1]
			if len(r.frames) == 0 {
				r.steps = steps
				r.clock = clock
				r.ctr.Cycles += cycles
				r.ctr.InstrsRetired += instrs
				return nil
			}
			if pipelined {
				caller := &r.frames[len(r.frames)-1]
				// caller.pc was advanced past its call instruction
				callIns := &caller.f.Instrs[caller.pc-1]
				if callIns.Rd >= 0 {
					caller.ready[callIns.Rd] = clock
				}
			}
			continue
		}
		// every remaining opcode (ALU, moves, print, arg, alloc) retires
		// with its latency and, under the scoreboard, publishes its
		// destination — exactly the common exit of the interpreter loop
		cycles += lat
		if pipelined {
			clock = issueT + 1
			if d := instrDst(ins); d >= 0 {
				fr.ready[d] = issueT + lat
			}
		}
		fr.pc++
	}
}
