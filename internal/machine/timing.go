package machine

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/addrspace"
)

// This file is the pipelined timing engine behind Replay and
// ReplayBatch: one scoreboard walk over a recorded trace, advancing any
// number of timing lanes in lock step.
//
// The walk runs over a timing program, not over Instrs: each FuncCode
// is decoded once per Program into a flat table of timingOps that
// carries exactly what the scoreboard needs — a kind, at most two
// source registers, a destination, a latency row and a branch target
// or callee. Absent sources read the frame's zero register (initialized
// to the entry clock, so it never delays an issue) and absent
// destinations write its sink register, which nothing reads; every
// straight-line instruction is then the same fused lane loop
//
//	t := max(clock, ready[s1], ready[s2]); ready[d] = t + lat; clock = t + 1
//
// with no opcode switch, no destination lookup and no map lookup per
// call.
//
// A lane is one distinct pipelined timing: its latency rows, its call
// overhead and the check-outcome bitstream of its ALAT capacity (see
// newLanes). Everything the walk computes per lane is its clock; every
// other counter is lane-independent and comes from the serial
// aggregate formulas.

// Op kinds of the timing program.
const (
	tkStep  uint8 = iota // straight-line: the fused issue, then pc+1
	tkSpec               // speculative load: consumes its deferred-fault bit
	tkCheck              // check load: per-lane latency from the miss streams
	tkBr                 // unconditional branch to x
	tkCond               // beqz/bnez: consumes a direction bit
	tkPrint              // issues on every argument register
	tkCall               // issues on every argument register, enters aux[x].callee
	tkFence              // issues on every register (scoreboard drain)
	tkRet                // issues on s1, leaves the activation
	tkHalt               // leaves the activation without issuing
	tkFault              // faults with aux[x].err
)

// Latency rows: the lane-indexed latency table holds one row of k lanes
// per row index. Store and fence latencies have no row: neither
// instruction publishes a register, so under the scoreboard their
// latency never reaches the clock.
const (
	lUnit = iota
	lIntMul
	lIntDiv
	lFPArith
	lFPDiv
	lIntLoad
	lFPLoad
	lCheckHit
	lCheckMissInt // IntLoadLat + CheckMissPen
	lCheckMissFP  // FPLoadLat + CheckMissPen
	lCallOverhead // charged to the clock on entry, not an op latency
	lCheck        // scratch: the current check event's per-lane latency
	numLatRows
)

// timingOp is one decoded instruction. Registers index the frame's
// scoreboard; for tkCheck, x names the miss-latency row.
type timingOp struct {
	kind, lat uint8
	s1, s2, d int32
	x         int32
}

// timingAux holds what does not fit a timingOp: argument registers and
// callee of a call or print, or the error of a faulting op.
type timingAux struct {
	args   []int32
	callee *timingFunc
	err    string
}

// timingFunc is one decoded function. code ends in a pc-out-of-range
// sentinel, which also receives every out-of-range branch target, so
// the walk needs no per-step bounds check.
type timingFunc struct {
	name      string
	code      []timingOp
	aux       []timingAux
	regs      int // scoreboard registers: NumRegs, the zero register, the sink
	frameSize int
}

// timingProgram is a Program decoded for the timing walk.
type timingProgram struct {
	main *timingFunc // nil when the program has no main
}

// timing returns p's timing program, decoding it on first use. A
// Program must not be modified once it has been replayed.
func (p *Program) timing() *timingProgram {
	if tp := p.decoded.Load(); tp != nil {
		return tp
	}
	// concurrent first replays may both decode; either result is valid
	tp := decodeTiming(p)
	p.decoded.Store(tp)
	return tp
}

func decodeTiming(p *Program) *timingProgram {
	fns := make(map[*FuncCode]*timingFunc, len(p.Funcs))
	for _, f := range p.Funcs {
		fns[f] = &timingFunc{name: f.Name, regs: f.NumRegs + 2, frameSize: f.FrameSize}
	}
	for _, f := range p.Funcs {
		decodeFunc(p, f, fns)
	}
	return &timingProgram{main: fns[p.Funcs["main"]]}
}

func decodeFunc(p *Program, f *FuncCode, fns map[*FuncCode]*timingFunc) {
	tf := fns[f]
	fault := func(format string, a ...any) timingOp {
		tf.aux = append(tf.aux, timingAux{err: fmt.Sprintf(format, a...)})
		return timingOp{kind: tkFault, x: int32(len(tf.aux) - 1)}
	}
	// absent operands read the zero register and write the sink
	zero, sink := int32(f.NumRegs), int32(f.NumRegs+1)
	tf.code = make([]timingOp, 0, len(f.Instrs)+1)
	for i := range f.Instrs {
		ins := &f.Instrs[i]
		o := timingOp{kind: tkStep, lat: lUnit, s1: zero, s2: zero, d: sink}
		switch ins.Op {
		case OpNop:
		case OpMovI, OpLEA:
			o.d = int32(ins.Rd)
		case OpMov, OpNeg, OpNot, OpI2F, OpF2I, OpFNeg, OpArg, OpAlloc:
			o.lat, o.s1, o.d = aluLat(ins.Op), int32(ins.Rs), int32(ins.Rd)
		case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr,
			OpFAdd, OpFSub, OpFMul, OpFDiv,
			OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE,
			OpFCmpEQ, OpFCmpNE, OpFCmpLT, OpFCmpLE, OpFCmpGT, OpFCmpGE:
			o.lat, o.s1, o.s2, o.d = aluLat(ins.Op), int32(ins.Rs), int32(ins.Rt), int32(ins.Rd)
		case OpLd, OpLdA, OpLdS, OpLdSA, OpLdF, OpLdFA, OpLdFS, OpLdFSA:
			// advanced-load inserts live in the memoized ALAT walk; the
			// timing walk charges only the load latency
			o.lat, o.s1, o.d = lIntLoad, int32(ins.Rs), int32(ins.Rd)
			if ins.Op == OpLdF || ins.Op == OpLdFA || ins.Op == OpLdFS || ins.Op == OpLdFSA {
				o.lat = lFPLoad
			}
			if ins.Op == OpLdS || ins.Op == OpLdSA || ins.Op == OpLdFS || ins.Op == OpLdFSA {
				o.kind = tkSpec
			}
		case OpLdC, OpLdFC:
			// sources: the address and the value being validated
			o.kind, o.lat, o.s1, o.s2, o.d = tkCheck, lCheck, int32(ins.Rs), int32(ins.Rd), int32(ins.Rd)
			o.x = lCheckMissInt
			if ins.Op == OpLdFC {
				o.x = lCheckMissFP
			}
		case OpSt, OpStF:
			o.s1, o.s2 = int32(ins.Rd), int32(ins.Rs) // address, value
		case OpBr, OpBeqz, OpBnez:
			o.kind, o.x = tkBr, int32(ins.Target)
			if ins.Op != OpBr {
				o.kind = tkCond
				if ins.Rs >= 0 {
					o.s1 = int32(ins.Rs)
				}
			}
			if ins.Target < 0 || ins.Target >= len(f.Instrs) {
				o.x = int32(len(f.Instrs)) // the sentinel
			}
		case OpPrint, OpCall:
			o.kind = tkPrint
			aux := timingAux{args: make([]int32, len(ins.ArgRegs))}
			for j, r := range ins.ArgRegs {
				aux.args[j] = int32(r)
			}
			if ins.Op == OpCall {
				o.kind, aux.callee = tkCall, fns[p.Funcs[ins.Fn]]
				if ins.Rd >= 0 {
					o.d = int32(ins.Rd)
				}
			}
			tf.aux = append(tf.aux, aux)
			o.x = int32(len(tf.aux) - 1)
			if o.kind == tkCall && aux.callee == nil {
				o = fault("call to unknown function %q", ins.Fn)
			}
		case OpFence:
			o.kind = tkFence
		case OpRet:
			o.kind = tkRet
			if ins.Rs >= 0 {
				o.s1 = int32(ins.Rs)
			}
		case OpHalt:
			o.kind = tkHalt
		default:
			o = fault("unknown opcode %v", ins.Op)
		}
		tf.code = append(tf.code, o)
	}
	tf.code = append(tf.code, fault("pc out of range in %s", f.Name))
}

// aluLat is the latency row of an ALU or move opcode.
func aluLat(op Opcode) uint8 {
	switch op {
	case OpMul:
		return lIntMul
	case OpDiv, OpMod:
		return lIntDiv
	case OpFAdd, OpFSub, OpFMul, OpFNeg:
		return lFPArith
	case OpFDiv:
		return lFPDiv
	}
	return lUnit
}

// lanes is the lane-major input of one walk: lats[row*k+lane] is lane's
// latency for a latency row, stream[lane] indexes its check-miss
// bitstream (one bit per recorded check, set on a miss).
type lanes struct {
	k       int
	lats    []int64
	stream  []int
	streams [][]uint64
}

// laneKey is everything a lane's clock depends on. Two pipelined
// configs with equal keys walk identical scoreboards, so they share
// one lane; this is exact, because the walk reads a config only through
// these values.
type laneKey struct {
	lats   [lCheck]int64
	stream int
}

// newLanes deduplicates cfgs (normalized, pipelined) into lanes and
// returns the lane of each config. Check-miss streams are compared by
// content: ALAT capacities that never evict differently give identical
// streams and share lanes.
func newLanes(t *Trace, cfgs []Config) (*lanes, []int) {
	var keys []laneKey
	var streams [][]uint64
	laneOf := make([]int, len(cfgs))
	for i, cfg := range cfgs {
		bits := t.alatWalk(cfg.ALATSize).missBits
		si := slices.IndexFunc(streams, func(s []uint64) bool { return slices.Equal(s, bits) })
		if si < 0 {
			si = len(streams)
			streams = append(streams, bits)
		}
		key := laneKey{lats: [lCheck]int64{
			lUnit:         1,
			lIntMul:       int64(cfg.IntMulLat),
			lIntDiv:       int64(cfg.IntDivLat),
			lFPArith:      int64(cfg.FPArithLat),
			lFPDiv:        int64(cfg.FPDivLat),
			lIntLoad:      int64(cfg.IntLoadLat),
			lFPLoad:       int64(cfg.FPLoadLat),
			lCheckHit:     int64(cfg.CheckHitLat),
			lCheckMissInt: int64(cfg.IntLoadLat + cfg.CheckMissPen),
			lCheckMissFP:  int64(cfg.FPLoadLat + cfg.CheckMissPen),
			lCallOverhead: int64(cfg.CallOverhead),
		}, stream: si}
		li := slices.Index(keys, key)
		if li < 0 {
			li = len(keys)
			keys = append(keys, key)
		}
		laneOf[i] = li
	}
	k := len(keys)
	ln := &lanes{
		k:       k,
		lats:    make([]int64, numLatRows*k),
		stream:  make([]int, k),
		streams: streams,
	}
	for l, key := range keys {
		for row, v := range key.lats {
			ln.lats[row*k+l] = v
		}
		ln.stream[l] = key.stream
	}
	return ln, laneOf
}

// walkFrame is one activation of the timing walk. Its scoreboard is
// stack[ready : ready+fn.regs*k], register-major: lane l of register r
// is at ready + r*k + l.
type walkFrame struct {
	fn    *timingFunc
	pc    int
	ready int
	base  int // stack-region base, for the overflow check
}

// walk re-times trace t over p in every lane at once and returns the
// final per-lane clocks. maxSteps and maxCallDepth are the walk's
// resource limits: exceeding one faults with the error direct
// execution reports. Exceeding the recorded run's own step count or
// depth instead means the trace contradicts its header.
func walk(p *Program, t *Trace, ln *lanes, maxSteps int64, maxCallDepth int) ([]int64, error) {
	tp := p.timing()
	if tp.main == nil {
		return nil, errors.New("machine: no main function")
	}
	stepLimit := min(maxSteps, t.Steps)
	depthLimit := min(maxCallDepth, t.MaxDepth)
	k := ln.k
	lats, streams, laneStream := ln.lats, ln.streams, ln.stream
	callOv := lats[lCallOverhead*k : lCallOverhead*k+k]
	nChecks := t.counts[cCheckInt] + t.counts[cCheckFP]
	var checkOrd, steps int64
	bits := bitReader{t: &t.bits}
	mem := addrspace.New(p.GlobSize, t.StackSlots, nil)
	clocks := make([]int64, k)
	var stack []int64
	var frames []walkFrame

	// push enters f in every lane: each lane charges its call overhead
	// and starts f's scoreboard at its own clock
	push := func(f *timingFunc) error {
		if len(frames) >= depthLimit {
			if len(frames) >= maxCallDepth {
				return fmt.Errorf("machine: call depth exceeded in %s", f.name)
			}
			return errTraceLimits
		}
		base, ok := mem.PushFrame(f.frameSize)
		if !ok {
			return fmt.Errorf("machine: stack overflow in %s", f.name)
		}
		for l := range clocks {
			clocks[l] += callOv[l]
		}
		off := len(stack)
		stack = slices.Grow(stack, f.regs*k)[:off+f.regs*k]
		for r := off; r < len(stack); r += k {
			copy(stack[r:r+k], clocks)
		}
		frames = append(frames, walkFrame{fn: f, ready: off, base: base})
		return nil
	}
	if err := push(tp.main); err != nil {
		return nil, err
	}
	fr := &frames[0]
	code, ready, pc := fr.fn.code, stack[fr.ready:], 0
	for {
		o := &code[pc]
		steps++
		if steps > stepLimit {
			if steps > maxSteps {
				return nil, fmt.Errorf("machine: step limit exceeded")
			}
			return nil, errTraceLimits
		}
		next := pc + 1
		switch o.kind {
		case tkSpec:
			// the deferred bit keeps the shared bit cursor aligned with
			// branch directions; the insert it gates is in the ALAT walk
			if _, ok := bits.next(); !ok {
				return nil, errTraceUnderrun
			}
		case tkCheck:
			if checkOrd >= nChecks {
				return nil, errTraceUnderrun
			}
			word, bit := checkOrd>>6, uint64(1)<<uint(checkOrd&63)
			checkOrd++
			hit := lats[lCheckHit*k : lCheckHit*k+k]
			miss := lats[int(o.x)*k : int(o.x)*k+k]
			cur := lats[lCheck*k : lCheck*k+k]
			for l := range cur {
				if streams[laneStream[l]][word]&bit != 0 {
					cur[l] = miss[l]
				} else {
					cur[l] = hit[l]
				}
			}
		case tkBr:
			next = int(o.x)
		case tkCond:
			taken, ok := bits.next()
			if !ok {
				return nil, errTraceUnderrun
			}
			if taken {
				next = int(o.x)
			}
		case tkPrint, tkCall, tkFence:
			// clock = max(clock, every source) + 1, publishing nothing; a
			// call's result is published when the callee returns
			if o.kind == tkFence {
				// drain every register but the sink
				for r := 0; r < fr.fn.regs-1; r++ {
					maxLanes(clocks, ready[r*k:r*k+k])
				}
			} else {
				for _, r := range fr.fn.aux[o.x].args {
					maxLanes(clocks, ready[int(r)*k:int(r)*k+k])
				}
			}
			for l := range clocks {
				clocks[l]++
			}
			if o.kind != tkCall {
				pc = next
				continue
			}
			fr.pc = next // resume point after the callee returns
			if err := push(fr.fn.aux[o.x].callee); err != nil {
				return nil, err
			}
			fr = &frames[len(frames)-1]
			code, ready, pc = fr.fn.code, stack[fr.ready:], 0
			continue
		case tkFault:
			return nil, fmt.Errorf("machine: %s", fr.fn.aux[o.x].err)
		}
		if o.kind != tkHalt {
			n := len(clocks) // == k; stated so the lane loop needs no bounds checks
			lat := lats[int(o.lat)*n:][:n]
			r1 := ready[int(o.s1)*n:][:n]
			r2 := ready[int(o.s2)*n:][:n]
			rd := ready[int(o.d)*n:][:n]
			for l, c := range clocks {
				if v := r1[l]; v > c {
					c = v
				}
				if v := r2[l]; v > c {
					c = v
				}
				rd[l] = c + lat[l]
				clocks[l] = c + 1
			}
		}
		if o.kind != tkRet && o.kind != tkHalt {
			pc = next
			continue
		}
		// leave the activation; the caller's call publishes its result
		// register at the callee's final clock
		mem.PopFrame(fr.base)
		stack = stack[:fr.ready]
		frames = frames[:len(frames)-1]
		if len(frames) == 0 {
			return clocks, nil
		}
		fr = &frames[len(frames)-1]
		code, ready, pc = fr.fn.code, stack[fr.ready:], fr.pc
		d := int(code[pc-1].d)
		copy(ready[d*k:d*k+k], clocks)
	}
}

// maxLanes raises each lane's clock to that lane's ready time.
func maxLanes(clocks, ready []int64) {
	for l, v := range ready[:len(clocks)] {
		if v > clocks[l] {
			clocks[l] = v
		}
	}
}
