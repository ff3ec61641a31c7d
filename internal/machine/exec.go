package machine

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/addrspace"
)

// Config tunes the machine model. Zero fields are normalized
// individually to their Defaults values, so a partial Config such as
// {Pipelined: true} or {ALATSize: 16} means "defaults plus this
// override". A latency or penalty field set to Free (any negative
// value) means explicitly zero cycles, which the zero value cannot
// express.
type Config struct {
	ALATSize     int // entries in the advanced load address table
	IntLoadLat   int // integer load latency (L1 hit on Itanium: 2)
	FPLoadLat    int // floating-point load latency (L2 on Itanium: 9)
	CheckHitLat  int // successful ld.c (paper: 0)
	CheckMissPen int // extra penalty on a failed check, on top of the reload
	StoreLat     int
	IntMulLat    int
	IntDivLat    int
	FPArithLat   int
	FPDivLat     int
	CallOverhead int
	// FenceLat is the cost of an OpFence speculation barrier under the
	// serial model; under the pipelined model a fence additionally stalls
	// until every in-flight result has retired (a scoreboard drain).
	FenceLat     int
	MaxSteps     int64
	MaxCallDepth int
	StackSlots   int
	// Pipelined switches the timing model from serial (cycles = sum of
	// latencies) to an in-order scoreboard: one instruction issues per
	// cycle and a consumer stalls until its operands' latencies have
	// elapsed. Under this model latency-driven scheduling
	// (codegen.Schedule) overlaps load latency with independent work.
	Pipelined bool
}

// Free marks a latency or penalty field as explicitly zero-cost. Plain
// 0 in a Config field means "use the default" (the zero value must
// behave like Defaults()), so zero cycles needs a sentinel.
const Free = -1

// withDefaults normalizes a Config field by field: zero fields take
// their Defaults() value; negative latency/penalty fields (Free) become
// zero cycles. The old behavior — replacing the whole struct whenever
// ALATSize was zero — silently discarded explicit Pipelined, latency
// and MaxSteps overrides (and a Config with only ALATSize set ran with
// MaxSteps 0, faulting on the first instruction).
func (cfg Config) withDefaults() Config {
	d := Defaults()
	if cfg.ALATSize <= 0 {
		cfg.ALATSize = d.ALATSize
	}
	lat := func(f *int, def int) {
		if *f == 0 {
			*f = def
		} else if *f < 0 {
			*f = 0
		}
	}
	lat(&cfg.IntLoadLat, d.IntLoadLat)
	lat(&cfg.FPLoadLat, d.FPLoadLat)
	lat(&cfg.CheckHitLat, d.CheckHitLat)
	lat(&cfg.CheckMissPen, d.CheckMissPen)
	lat(&cfg.StoreLat, d.StoreLat)
	lat(&cfg.IntMulLat, d.IntMulLat)
	lat(&cfg.IntDivLat, d.IntDivLat)
	lat(&cfg.FPArithLat, d.FPArithLat)
	lat(&cfg.FPDivLat, d.FPDivLat)
	lat(&cfg.CallOverhead, d.CallOverhead)
	lat(&cfg.FenceLat, d.FenceLat)
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = d.MaxSteps
	}
	if cfg.MaxCallDepth <= 0 {
		cfg.MaxCallDepth = d.MaxCallDepth
	}
	if cfg.StackSlots <= 0 {
		cfg.StackSlots = d.StackSlots
	}
	return cfg
}

// Normalized returns the Config with every zero field resolved to its
// Defaults() value and Free sentinels resolved to zero cycles — the
// exact Config a Run with this value executes under. Callers that key
// caches by configuration (the trace cache in package repro) use it so
// equivalent Configs share entries.
func (cfg Config) Normalized() Config { return cfg.withDefaults() }

// SpecSavedCycles is the latency a retired speculative load saves under
// this model: the promoted load's latency minus the check load that
// replaces it (ld.c / ldf.c at CheckHitLat), floored at zero. It is the
// benefit term of the expected-cost speculation policy (core.Policy).
func (cfg Config) SpecSavedCycles(fp bool) int {
	n := cfg.withDefaults()
	lat := n.IntLoadLat
	if fp {
		lat = n.FPLoadLat
	}
	if s := lat - n.CheckHitLat; s > 0 {
		return s
	}
	return 0
}

// SpecRecoveryCycles is the latency a failed check costs under this
// model: the reload at full load latency plus the miss penalty. It is
// the cost term of the expected-cost speculation policy (core.Policy).
func (cfg Config) SpecRecoveryCycles(fp bool) int {
	n := cfg.withDefaults()
	lat := n.IntLoadLat
	if fp {
		lat = n.FPLoadLat
	}
	return lat + n.CheckMissPen
}

// Defaults is the Itanium-flavoured model from the paper's §5.2.
func Defaults() Config {
	return Config{
		ALATSize:   32,
		IntLoadLat: 2,
		FPLoadLat:  9,
		// the paper's successful ld.c has 0-cycle result latency; it
		// still occupies one issue slot in this in-order model
		CheckHitLat:  1,
		CheckMissPen: 4,
		StoreLat:     1,
		IntMulLat:    2,
		IntDivLat:    15,
		FPArithLat:   4,
		FPDivLat:     20,
		CallOverhead: 2,
		// a full-pipeline speculation barrier; modelled on the cost of a
		// srlz.d-style stop that waits out the deepest load latency
		FenceLat:     8,
		MaxSteps:     4_000_000_000,
		MaxCallDepth: 10000,
		StackSlots:   1 << 20,
	}
}

// Counters are the performance-monitor outputs of a run (the pfmon
// stand-in).
type Counters struct {
	Cycles           int64
	DataAccessCycles int64
	InstrsRetired    int64
	LoadsRetired     int64 // all load-class instructions, incl. checks
	CheckLoads       int64 // ld.c / ldf.c retired
	FailedChecks     int64 // checks that missed in the ALAT
	AdvLoads         int64 // ld.a / ldf.a retired
	SpecLoads        int64 // ld.s / ldf.s retired
	SpecLoadFaults   int64 // deferred faults (NaT set)
	Stores           int64
	ALATEvictions    int64 // capacity/conflict evictions
}

// FuncCounters are the per-function speculation counters of one run:
// the slice of Counters that online tier policy needs attributed to a
// function rather than program-summed. ALAT hits are
// CheckLoads−FailedChecks, so the pair carries the full hit/miss
// split; AdvLoads counts the table inserts those checks validate.
type FuncCounters struct {
	CheckLoads   int64
	FailedChecks int64
	AdvLoads     int64
}

// Result of a machine run.
type Result struct {
	Ret      int64
	Output   string
	Counters Counters
	// PerFunc maps a function name to its speculation counters. A
	// function has an entry iff it retired at least one advanced or
	// check load; the map is nil when no function did. The per-function
	// values sum to the corresponding program-wide Counters fields.
	PerFunc map[string]FuncCounters `json:",omitempty"`
}

// perFuncMap converts the engines' per-activation tally maps (keyed by
// code pointer for lookup speed) into a Result's name-keyed map,
// preserving the nil-when-empty convention the differential tests pin
// across all execution paths.
func perFuncMap(tallies map[*FuncCode]*FuncCounters) map[string]FuncCounters {
	if len(tallies) == 0 {
		return nil
	}
	out := make(map[string]FuncCounters, len(tallies))
	for f, c := range tallies {
		out[f.Name] = *c
	}
	return out
}

type vm struct {
	prog *Program
	cfg  Config
	out  io.Writer

	mem addrspace.Space

	alat *alat

	// per-depth call scratch: activations nest strictly, so frame-local
	// buffers (registers, NaT bits, scoreboard, outgoing args) are
	// reused by depth instead of allocated per dynamic call — on
	// call-heavy programs the allocations dominate recording cost
	scratch []callScratch

	args []int64

	steps   int64
	depth   int
	frameID int64
	clock   int64 // pipelined-model absolute cycle

	// trace, when non-nil, receives the architectural event stream
	// (branch directions, speculative-fault bits, ALAT-relevant
	// addresses) for later re-timing by Replay. See trace.go.
	trace *Trace

	ctr Counters

	// perFn tallies speculation counters per function, populated lazily
	// so only functions that retire an advanced or check load pay for
	// (or appear in) an entry.
	perFn map[*FuncCode]*FuncCounters
}

// fnCtr returns (creating on first touch) f's per-function tally.
func (m *vm) fnCtr(f *FuncCode) *FuncCounters {
	c := m.perFn[f]
	if c == nil {
		if m.perFn == nil {
			m.perFn = make(map[*FuncCode]*FuncCounters)
		}
		c = &FuncCounters{}
		m.perFn[f] = c
	}
	return c
}

// Run executes the compiled program's main function.
func Run(prog *Program, args []int64, cfg Config, out io.Writer) (*Result, error) {
	res, _, err := execute(prog, args, cfg, out, nil)
	return res, err
}

// run is the shared engine behind Run and Record. When trace is non-nil
// the architectural event stream is appended to it as execution
// proceeds.
func execute(prog *Program, args []int64, cfg Config, out io.Writer, trace *Trace) (*Result, *Trace, error) {
	cfg = cfg.withDefaults()
	var sb *strings.Builder
	if out == nil {
		sb = &strings.Builder{}
		out = sb
	}
	m := &vm{prog: prog, cfg: cfg, out: out, args: args, trace: trace}
	m.mem = addrspace.New(prog.GlobSize, cfg.StackSlots, prog.GlobalInit)
	m.alat = newALAT(cfg.ALATSize)

	mainFn, ok := prog.Funcs["main"]
	if !ok {
		return nil, nil, errors.New("machine: no main function")
	}
	ret, _, err := m.call(mainFn, nil)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Pipelined {
		m.ctr.Cycles = m.clock
	}
	m.ctr.ALATEvictions = m.alat.evictions
	res := &Result{Ret: int64(ret), Counters: m.ctr, PerFunc: perFuncMap(m.perFn)}
	if sb != nil {
		res.Output = sb.String()
	}
	if trace != nil {
		trace.Ret = res.Ret
		trace.Output = res.Output
		trace.Steps = m.steps
		trace.StackSlots = cfg.StackSlots
		trace.Frames = m.frameID
		// statistics classes already tallied by the counters
		trace.counts[cStore] = m.ctr.Stores
		trace.counts[cSpec] = m.ctr.SpecLoads
		trace.counts[cSpecFault] = m.ctr.SpecLoadFaults
		trace.counts[cAdv] = m.ctr.AdvLoads
	}
	return res, trace, nil
}

func (m *vm) fault(format string, a ...any) error {
	return fmt.Errorf("machine: %s", fmt.Sprintf(format, a...))
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// callScratch holds one nesting depth's reusable frame buffers.
type callScratch struct {
	regs  []uint64
	nat   []bool
	ready []int64
	args  []uint64
}

// grow returns s's buffers resized (and zeroed where the VM relies on
// zero initialization) for a frame of n registers.
func (s *callScratch) grow(n int) (regs []uint64, nat []bool) {
	if cap(s.regs) < n {
		s.regs = make([]uint64, n)
		s.nat = make([]bool, n)
	} else {
		s.regs = s.regs[:n]
		s.nat = s.nat[:n]
		clear(s.regs)
		clear(s.nat)
	}
	return s.regs, s.nat
}

// call runs one function activation and returns (value, hadValue).
func (m *vm) call(f *FuncCode, args []uint64) (uint64, bool, error) {
	if m.depth >= m.cfg.MaxCallDepth {
		return 0, false, m.fault("call depth exceeded in %s", f.Name)
	}
	base, ok := m.mem.PushFrame(f.FrameSize)
	if !ok {
		return 0, false, m.fault("stack overflow in %s", f.Name)
	}
	m.depth++
	m.frameID++
	myFrame := m.frameID
	// fnCtr is this activation's per-function tally, fetched lazily at
	// the first speculation event so event-free functions stay out of
	// the map; fnID tags recorded ALAT events for replay attribution
	var fnCtr *FuncCounters
	var fnID int32
	if m.trace != nil {
		fnID = m.trace.fnID(f)
		if m.depth > m.trace.MaxDepth {
			m.trace.MaxDepth = m.depth
		}
	}
	defer func() {
		m.mem.PopFrame(base)
		m.depth--
	}()
	if m.depth > len(m.scratch) {
		m.scratch = append(m.scratch, callScratch{})
	}
	sc := &m.scratch[m.depth-1]
	regs, nat := sc.grow(f.NumRegs)
	var ready []int64
	if m.cfg.Pipelined {
		if cap(sc.ready) < f.NumRegs {
			sc.ready = make([]int64, f.NumRegs)
		}
		ready = sc.ready[:f.NumRegs]
		m.clock += int64(m.cfg.CallOverhead)
		for i := range ready {
			ready[i] = m.clock
		}
	}
	for i := 0; i < f.NumParams && i < len(args); i++ {
		regs[i] = args[i]
	}
	m.ctr.Cycles += int64(m.cfg.CallOverhead)

	pc := 0
	for {
		m.steps++
		if m.steps > m.cfg.MaxSteps {
			return 0, false, m.fault("step limit exceeded")
		}
		if pc < 0 || pc >= len(f.Instrs) {
			return 0, false, m.fault("pc out of range in %s", f.Name)
		}
		ins := &f.Instrs[pc]
		m.ctr.InstrsRetired++
		lat := int64(1)
		var issueT int64
		if m.cfg.Pipelined {
			issueT = m.clock
			forEachSrc(ins, func(r int) {
				if ready[r] > issueT {
					issueT = ready[r]
				}
			})
		}
		switch ins.Op {
		case OpNop:
		case OpMovI:
			regs[ins.Rd] = uint64(ins.Imm)
			nat[ins.Rd] = false
		case OpMov:
			regs[ins.Rd] = regs[ins.Rs]
			nat[ins.Rd] = nat[ins.Rs]
		case OpLEA:
			if ins.IsFrame {
				regs[ins.Rd] = uint64(base + int(ins.Imm))
			} else {
				regs[ins.Rd] = uint64(ins.Imm)
			}
			nat[ins.Rd] = false
		case OpAdd:
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) + int64(regs[ins.Rt]))
		case OpSub:
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) - int64(regs[ins.Rt]))
		case OpMul:
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) * int64(regs[ins.Rt]))
			lat = int64(m.cfg.IntMulLat)
			if m.trace != nil {
				m.trace.counts[cMul]++
			}
		case OpDiv:
			d := int64(regs[ins.Rt])
			if d == 0 {
				return 0, false, m.fault("integer division by zero in %s", f.Name)
			}
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) / d)
			lat = int64(m.cfg.IntDivLat)
			if m.trace != nil {
				m.trace.counts[cDivMod]++
			}
		case OpMod:
			d := int64(regs[ins.Rt])
			if d == 0 {
				return 0, false, m.fault("integer modulo by zero in %s", f.Name)
			}
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) % d)
			lat = int64(m.cfg.IntDivLat)
			if m.trace != nil {
				m.trace.counts[cDivMod]++
			}
		case OpAnd:
			regs[ins.Rd] = regs[ins.Rs] & regs[ins.Rt]
		case OpOr:
			regs[ins.Rd] = regs[ins.Rs] | regs[ins.Rt]
		case OpXor:
			regs[ins.Rd] = regs[ins.Rs] ^ regs[ins.Rt]
		case OpShl:
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) << (regs[ins.Rt] & 63))
		case OpShr:
			regs[ins.Rd] = uint64(int64(regs[ins.Rs]) >> (regs[ins.Rt] & 63))
		case OpNeg:
			regs[ins.Rd] = uint64(-int64(regs[ins.Rs]))
		case OpNot:
			regs[ins.Rd] = boolToU64(int64(regs[ins.Rs]) == 0)
		case OpFAdd:
			regs[ins.Rd] = math.Float64bits(math.Float64frombits(regs[ins.Rs]) + math.Float64frombits(regs[ins.Rt]))
			lat = int64(m.cfg.FPArithLat)
			if m.trace != nil {
				m.trace.counts[cFPArith]++
			}
		case OpFSub:
			regs[ins.Rd] = math.Float64bits(math.Float64frombits(regs[ins.Rs]) - math.Float64frombits(regs[ins.Rt]))
			lat = int64(m.cfg.FPArithLat)
			if m.trace != nil {
				m.trace.counts[cFPArith]++
			}
		case OpFMul:
			regs[ins.Rd] = math.Float64bits(math.Float64frombits(regs[ins.Rs]) * math.Float64frombits(regs[ins.Rt]))
			lat = int64(m.cfg.FPArithLat)
			if m.trace != nil {
				m.trace.counts[cFPArith]++
			}
		case OpFDiv:
			regs[ins.Rd] = math.Float64bits(math.Float64frombits(regs[ins.Rs]) / math.Float64frombits(regs[ins.Rt]))
			lat = int64(m.cfg.FPDivLat)
			if m.trace != nil {
				m.trace.counts[cFPDiv]++
			}
		case OpFNeg:
			regs[ins.Rd] = math.Float64bits(-math.Float64frombits(regs[ins.Rs]))
			lat = int64(m.cfg.FPArithLat)
			if m.trace != nil {
				m.trace.counts[cFPArith]++
			}
		case OpCmpEQ:
			regs[ins.Rd] = boolToU64(int64(regs[ins.Rs]) == int64(regs[ins.Rt]))
		case OpCmpNE:
			regs[ins.Rd] = boolToU64(int64(regs[ins.Rs]) != int64(regs[ins.Rt]))
		case OpCmpLT:
			regs[ins.Rd] = boolToU64(int64(regs[ins.Rs]) < int64(regs[ins.Rt]))
		case OpCmpLE:
			regs[ins.Rd] = boolToU64(int64(regs[ins.Rs]) <= int64(regs[ins.Rt]))
		case OpCmpGT:
			regs[ins.Rd] = boolToU64(int64(regs[ins.Rs]) > int64(regs[ins.Rt]))
		case OpCmpGE:
			regs[ins.Rd] = boolToU64(int64(regs[ins.Rs]) >= int64(regs[ins.Rt]))
		case OpFCmpEQ:
			regs[ins.Rd] = boolToU64(math.Float64frombits(regs[ins.Rs]) == math.Float64frombits(regs[ins.Rt]))
		case OpFCmpNE:
			regs[ins.Rd] = boolToU64(math.Float64frombits(regs[ins.Rs]) != math.Float64frombits(regs[ins.Rt]))
		case OpFCmpLT:
			regs[ins.Rd] = boolToU64(math.Float64frombits(regs[ins.Rs]) < math.Float64frombits(regs[ins.Rt]))
		case OpFCmpLE:
			regs[ins.Rd] = boolToU64(math.Float64frombits(regs[ins.Rs]) <= math.Float64frombits(regs[ins.Rt]))
		case OpFCmpGT:
			regs[ins.Rd] = boolToU64(math.Float64frombits(regs[ins.Rs]) > math.Float64frombits(regs[ins.Rt]))
		case OpFCmpGE:
			regs[ins.Rd] = boolToU64(math.Float64frombits(regs[ins.Rs]) >= math.Float64frombits(regs[ins.Rt]))
		case OpI2F:
			regs[ins.Rd] = math.Float64bits(float64(int64(regs[ins.Rs])))
		case OpF2I:
			regs[ins.Rd] = uint64(int64(math.Float64frombits(regs[ins.Rs])))

		case OpLd, OpLdF, OpLdA, OpLdFA:
			addr := int(int64(regs[ins.Rs]))
			if !m.mem.Valid(addr) {
				return 0, false, m.fault("load from invalid address %d in %s", addr, f.Name)
			}
			regs[ins.Rd] = m.mem.Load(addr)
			nat[ins.Rd] = false
			fp := ins.Op == OpLdF || ins.Op == OpLdFA
			if fp {
				lat = int64(m.cfg.FPLoadLat)
			} else {
				lat = int64(m.cfg.IntLoadLat)
			}
			m.ctr.LoadsRetired++
			m.ctr.DataAccessCycles += lat
			if m.trace != nil {
				if fp {
					m.trace.counts[cFPLoad]++
				} else {
					m.trace.counts[cIntLoad]++
				}
			}
			if ins.Op == OpLdA || ins.Op == OpLdFA {
				m.ctr.AdvLoads++
				if fnCtr == nil {
					fnCtr = m.fnCtr(f)
				}
				fnCtr.AdvLoads++
				if m.trace != nil {
					m.trace.ops.append(alatOp{kind: opInsert, frameID: myFrame, reg: int32(ins.Rd), addr: int64(addr), fn: fnID})
				}
				m.alat.insert(myFrame, ins.Rd, addr)
			}

		case OpLdC, OpLdFC:
			addr := int(int64(regs[ins.Rs]))
			m.ctr.LoadsRetired++
			m.ctr.CheckLoads++
			if fnCtr == nil {
				fnCtr = m.fnCtr(f)
			}
			fnCtr.CheckLoads++
			if m.trace != nil {
				kind, class := opCheckInt, cCheckInt
				if ins.Op == OpLdFC {
					kind, class = opCheckFP, cCheckFP
				}
				m.trace.counts[class]++
				m.trace.ops.append(alatOp{kind: kind, frameID: myFrame, reg: int32(ins.Rd), addr: int64(addr), fn: fnID})
			}
			if m.alat.check(myFrame, ins.Rd, addr) {
				// hit: the register already holds the current value
				lat = int64(m.cfg.CheckHitLat)
				m.ctr.DataAccessCycles += lat
			} else {
				m.ctr.FailedChecks++
				fnCtr.FailedChecks++
				if !m.mem.Valid(addr) {
					return 0, false, m.fault("check load from invalid address %d in %s", addr, f.Name)
				}
				regs[ins.Rd] = m.mem.Load(addr)
				nat[ins.Rd] = false
				if ins.Op == OpLdFC {
					lat = int64(m.cfg.FPLoadLat + m.cfg.CheckMissPen)
				} else {
					lat = int64(m.cfg.IntLoadLat + m.cfg.CheckMissPen)
				}
				m.ctr.DataAccessCycles += lat
				m.alat.insert(myFrame, ins.Rd, addr)
			}

		case OpLdS, OpLdFS, OpLdSA, OpLdFSA:
			addr := int(int64(regs[ins.Rs]))
			m.ctr.LoadsRetired++
			m.ctr.SpecLoads++
			deferred := !m.mem.Valid(addr) || nat[ins.Rs]
			if m.trace != nil {
				m.trace.bits.append(deferred)
			}
			if deferred {
				// deferred fault: NaT, consumed only on paths where the
				// original program would have faulted anyway
				regs[ins.Rd] = 0
				nat[ins.Rd] = true
				m.ctr.SpecLoadFaults++
			} else {
				regs[ins.Rd] = m.mem.Load(addr)
				nat[ins.Rd] = false
				if ins.Op == OpLdSA || ins.Op == OpLdFSA {
					m.ctr.AdvLoads++
					if fnCtr == nil {
						fnCtr = m.fnCtr(f)
					}
					fnCtr.AdvLoads++
					if m.trace != nil {
						m.trace.ops.append(alatOp{kind: opInsert, frameID: myFrame, reg: int32(ins.Rd), addr: int64(addr), fn: fnID})
					}
					m.alat.insert(myFrame, ins.Rd, addr)
				}
			}
			if ins.Op == OpLdFS || ins.Op == OpLdFSA {
				lat = int64(m.cfg.FPLoadLat)
			} else {
				lat = int64(m.cfg.IntLoadLat)
			}
			m.ctr.DataAccessCycles += lat
			if m.trace != nil {
				if ins.Op == OpLdFS || ins.Op == OpLdFSA {
					m.trace.counts[cFPLoad]++
				} else {
					m.trace.counts[cIntLoad]++
				}
			}

		case OpSt, OpStF:
			addr := int(int64(regs[ins.Rd])) // Rd holds the address register
			if !m.mem.Valid(addr) {
				return 0, false, m.fault("store to invalid address %d in %s", addr, f.Name)
			}
			if m.trace != nil {
				m.trace.ops.append(alatOp{kind: opInval, addr: int64(addr), fn: fnID})
			}
			m.mem.Store(addr, regs[ins.Rs])
			m.alat.invalidate(addr)
			lat = int64(m.cfg.StoreLat)
			m.ctr.Stores++
			m.ctr.DataAccessCycles += lat

		case OpAlloc:
			n := int(int64(regs[ins.Rs]))
			if n < 0 {
				return 0, false, m.fault("negative allocation %d", n)
			}
			regs[ins.Rd] = uint64(m.mem.Alloc(n))

		case OpBr:
			m.ctr.Cycles += lat
			if m.cfg.Pipelined {
				m.clock = issueT + 1
			}
			pc = ins.Target
			continue
		case OpBeqz:
			m.ctr.Cycles += lat
			if m.cfg.Pipelined {
				m.clock = issueT + 1
			}
			taken := int64(regs[ins.Rs]) == 0
			if m.trace != nil {
				m.trace.bits.append(taken)
			}
			if taken {
				pc = ins.Target
				continue
			}
			pc++
			continue
		case OpBnez:
			m.ctr.Cycles += lat
			if m.cfg.Pipelined {
				m.clock = issueT + 1
			}
			taken := int64(regs[ins.Rs]) != 0
			if m.trace != nil {
				m.trace.bits.append(taken)
			}
			if taken {
				pc = ins.Target
				continue
			}
			pc++
			continue

		case OpCall:
			callee, ok := m.prog.Funcs[ins.Fn]
			if !ok {
				return 0, false, m.fault("call to unknown function %q", ins.Fn)
			}
			// the callee copies args into its registers in its prologue,
			// before its own first call, so one outgoing buffer per
			// nesting depth is safe to reuse
			if cap(sc.args) < len(ins.ArgRegs) {
				sc.args = make([]uint64, len(ins.ArgRegs))
			}
			args := sc.args[:len(ins.ArgRegs)]
			for i, r := range ins.ArgRegs {
				args[i] = regs[r]
			}
			if m.cfg.Pipelined {
				m.clock = issueT + 1
			}
			v, _, err := m.call(callee, args)
			if err != nil {
				return 0, false, err
			}
			if ins.Rd >= 0 {
				regs[ins.Rd] = v
				if m.cfg.Pipelined {
					ready[ins.Rd] = m.clock
				}
			}
			m.ctr.Cycles += lat
			pc++
			continue

		case OpArg:
			idx := int(int64(regs[ins.Rs]))
			var v int64
			if idx >= 0 && idx < len(m.args) {
				v = m.args[idx]
			}
			regs[ins.Rd] = uint64(v)

		case OpPrint:
			parts := make([]string, len(ins.ArgRegs))
			for i, r := range ins.ArgRegs {
				if ins.FloatRs[i] {
					parts[i] = fmt.Sprintf("%.6g", math.Float64frombits(regs[r]))
				} else {
					parts[i] = fmt.Sprintf("%d", int64(regs[r]))
				}
			}
			fmt.Fprintln(m.out, strings.Join(parts, " "))

		case OpRet:
			m.ctr.Cycles += lat
			if m.cfg.Pipelined {
				m.clock = issueT + 1
			}
			if ins.Rs >= 0 {
				return regs[ins.Rs], true, nil
			}
			return 0, false, nil

		case OpHalt:
			if m.trace != nil {
				m.trace.counts[cHalt]++
			}
			return 0, false, nil

		case OpFence:
			lat = int64(m.cfg.FenceLat)
			if m.cfg.Pipelined {
				// scoreboard drain: nothing issues past the fence until
				// every in-flight result has retired
				for _, t := range ready {
					if t > issueT {
						issueT = t
					}
				}
			}
			if m.trace != nil {
				m.trace.counts[cFence]++
			}

		default:
			return 0, false, m.fault("unknown opcode %v", ins.Op)
		}
		m.ctr.Cycles += lat
		if m.cfg.Pipelined {
			m.clock = issueT + 1
			if d := instrDst(ins); d >= 0 {
				ready[d] = issueT + lat
			}
		}
		pc++
	}
}

// forEachSrc visits the source registers of an instruction (for the
// pipelined scoreboard).
func forEachSrc(ins *Instr, visit func(int)) {
	switch ins.Op {
	case OpMovI, OpLEA, OpNop, OpHalt, OpBr, OpFence:
		return
	case OpSt, OpStF:
		visit(ins.Rd) // address
		visit(ins.Rs) // value
	case OpLdC, OpLdFC:
		visit(ins.Rs) // address
		visit(ins.Rd) // the value being validated must be present
	case OpCall, OpPrint:
		for _, r := range ins.ArgRegs {
			visit(r)
		}
	case OpBeqz, OpBnez, OpArg, OpRet:
		if ins.Rs >= 0 {
			visit(ins.Rs)
		}
	case OpMov, OpNeg, OpNot, OpI2F, OpF2I, OpFNeg,
		OpLd, OpLdF, OpLdA, OpLdFA, OpLdS, OpLdFS, OpLdSA, OpLdFSA, OpAlloc:
		visit(ins.Rs)
	default: // three-register ALU
		visit(ins.Rs)
		visit(ins.Rt)
	}
}

// instrDst returns the destination register of an instruction, or -1.
func instrDst(ins *Instr) int {
	switch ins.Op {
	case OpSt, OpStF, OpBr, OpBeqz, OpBnez, OpRet, OpPrint, OpHalt, OpNop, OpCall, OpFence:
		return -1
	}
	return ins.Rd
}
