// Package machine implements the EPIC-style virtual machine the framework
// targets: an in-order execution engine with the IA-64 data-speculation
// primitives the paper relies on — advanced loads (ld.a) that allocate
// entries in an Advanced Load Address Table (ALAT), check loads (ld.c)
// that are free when the entry survives and re-execute the load when a
// conflicting store (or capacity eviction) invalidated it, and control-
// speculative loads (ld.s) that defer faults. The cycle model follows the
// paper's Itanium numbers: integer loads 2 cycles (L1 hit), floating-point
// loads 9 cycles (they fetch from L2), successful checks 0 cycles.
package machine

import (
	"sort"
	"strconv"
	"sync/atomic"
)

// Opcode enumerates VM instructions.
type Opcode int

const (
	OpNop Opcode = iota
	// data movement
	OpMovI // rd <- imm (64-bit pattern)
	OpMov  // rd <- rs
	OpLEA  // rd <- globalAddr or frameBase + off
	// integer ALU
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNeg
	OpNot
	// float ALU (registers hold raw float64 bits)
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg
	// comparisons (int result 0/1)
	OpCmpEQ
	OpCmpNE
	OpCmpLT
	OpCmpLE
	OpCmpGT
	OpCmpGE
	OpFCmpEQ
	OpFCmpNE
	OpFCmpLT
	OpFCmpLE
	OpFCmpGT
	OpFCmpGE
	// conversions
	OpI2F
	OpF2I
	// memory
	OpLd  // rd <- mem[rs]        (int latency)
	OpLdF // rd <- mem[rs]        (fp latency)
	OpLdA // advanced load: ld + ALAT allocate
	OpLdFA
	OpLdC // check load: free on ALAT hit, reload on miss
	OpLdFC
	OpLdS // control-speculative load: deferred fault (NaT on bad address)
	OpLdFS
	OpLdSA // speculative advanced load (ld.sa): deferred fault + ALAT entry
	OpLdFSA
	OpSt // mem[rd] <- rs        (invalidates ALAT entries)
	OpStF
	OpAlloc // rd <- heap allocation of rs slots
	// control
	OpBr    // unconditional branch to Target
	OpBeqz  // branch to Target if rs == 0
	OpBnez  // branch to Target if rs != 0
	OpCall  // call function Fn, args in ArgRegs, result to rd
	OpRet   // return (optional value in rs)
	OpPrint // print operands
	OpArg   // rd <- host argument rs
	OpHalt
	// OpFence is a speculation barrier: architecturally a no-op (it does
	// not touch memory or the ALAT), but under the pipelined model it
	// drains the scoreboard — no later instruction issues until every
	// in-flight result has retired — and under the serial model it costs
	// Config.FenceLat cycles. The hardening pass (internal/harden)
	// inserts it in front of speculative-leak sinks.
	OpFence
)

var opNames = map[Opcode]string{
	OpNop: "nop", OpMovI: "movi", OpMov: "mov", OpLEA: "lea",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpNeg: "neg", OpNot: "not",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv", OpFNeg: "fneg",
	OpCmpEQ: "cmp.eq", OpCmpNE: "cmp.ne", OpCmpLT: "cmp.lt", OpCmpLE: "cmp.le",
	OpCmpGT: "cmp.gt", OpCmpGE: "cmp.ge",
	OpFCmpEQ: "fcmp.eq", OpFCmpNE: "fcmp.ne", OpFCmpLT: "fcmp.lt",
	OpFCmpLE: "fcmp.le", OpFCmpGT: "fcmp.gt", OpFCmpGE: "fcmp.ge",
	OpI2F: "i2f", OpF2I: "f2i",
	OpLd: "ld", OpLdF: "ldf", OpLdA: "ld.a", OpLdFA: "ldf.a",
	OpLdC: "ld.c", OpLdFC: "ldf.c", OpLdS: "ld.s", OpLdFS: "ldf.s",
	OpLdSA: "ld.sa", OpLdFSA: "ldf.sa",
	OpSt: "st", OpStF: "stf", OpAlloc: "alloc",
	OpBr: "br", OpBeqz: "beqz", OpBnez: "bnez", OpCall: "call",
	OpRet: "ret", OpPrint: "print", OpArg: "arg", OpHalt: "halt",
	OpFence: "fence",
}

func (o Opcode) String() string { return string(o.appendText(nil)) }

func (o Opcode) appendText(dst []byte) []byte {
	if s, ok := opNames[o]; ok {
		return append(dst, s...)
	}
	dst = strconv.AppendInt(append(dst, "op("...), int64(o), 10)
	return append(dst, ')')
}

// Instr is one VM instruction. Rd/Rs/Rt are virtual register numbers
// within the owning function's register file; Imm carries immediates,
// global addresses and frame offsets.
type Instr struct {
	Op      Opcode
	Rd      int
	Rs      int
	Rt      int
	Imm     int64
	Target  int    // branch target (instruction index within function)
	Fn      string // callee for OpCall
	ArgRegs []int  // argument registers for OpCall / OpPrint operands
	FloatRs []bool // OpPrint: per-operand float flag
	IsFrame bool   // OpLEA: Imm is a frame offset (else global address)
}

func (i Instr) String() string { return string(i.appendText(nil)) }

// appendText appends the instruction's assembly text to dst. It backs
// String, Program.String and Fingerprint; strconv appends keep a whole
// program's disassembly free of per-instruction allocations.
func (i Instr) appendText(dst []byte) []byte {
	switch i.Op {
	case OpMovI:
		dst = appendReg(append(dst, "movi "...), i.Rd)
		return strconv.AppendInt(append(dst, ", "...), i.Imm, 10)
	case OpMov:
		return appendRegs(append(dst, "mov "...), i.Rd, i.Rs)
	case OpLEA:
		dst = appendReg(append(dst, "lea "...), i.Rd)
		if i.IsFrame {
			dst = append(dst, ", fp+"...)
		} else {
			dst = append(dst, ", g@"...)
		}
		return strconv.AppendInt(dst, i.Imm, 10)
	case OpLd, OpLdF, OpLdA, OpLdFA, OpLdC, OpLdFC, OpLdS, OpLdFS, OpLdSA, OpLdFSA:
		dst = appendReg(append(i.Op.appendText(dst), ' '), i.Rd)
		return append(appendReg(append(dst, ", ["...), i.Rs), ']')
	case OpSt, OpStF:
		dst = appendReg(append(i.Op.appendText(dst), " ["...), i.Rd)
		return appendReg(append(dst, "], "...), i.Rs)
	case OpBr:
		return strconv.AppendInt(append(dst, "br "...), int64(i.Target), 10)
	case OpBeqz, OpBnez:
		dst = appendReg(append(i.Op.appendText(dst), ' '), i.Rs)
		return strconv.AppendInt(append(dst, ", "...), int64(i.Target), 10)
	case OpCall:
		dst = append(append(dst, "call "...), i.Fn...)
		dst = appendIntList(append(dst, " args="...), i.ArgRegs)
		return appendReg(append(dst, " -> "...), i.Rd)
	case OpRet:
		if i.Rs >= 0 {
			return appendReg(append(dst, "ret "...), i.Rs)
		}
		return append(dst, "ret"...)
	case OpPrint:
		return appendIntList(append(dst, "print "...), i.ArgRegs)
	case OpArg, OpAlloc:
		return appendRegs(append(i.Op.appendText(dst), ' '), i.Rd, i.Rs)
	case OpFence:
		return append(dst, "fence"...)
	default:
		dst = appendRegs(append(i.Op.appendText(dst), ' '), i.Rd, i.Rs)
		return appendReg(append(dst, ", "...), i.Rt)
	}
}

// appendReg appends "r<n>".
func appendReg(dst []byte, r int) []byte {
	return strconv.AppendInt(append(dst, 'r'), int64(r), 10)
}

// appendRegs appends "r<a>, r<b>".
func appendRegs(dst []byte, a, b int) []byte {
	return appendReg(append(appendReg(dst, a), ", "...), b)
}

// appendIntList appends xs the way fmt's %v prints an []int: "[1 2 3]".
func appendIntList(dst []byte, xs []int) []byte {
	dst = append(dst, '[')
	for k, x := range xs {
		if k > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// FuncCode is the compiled form of one function.
type FuncCode struct {
	Name      string
	Instrs    []Instr
	NumRegs   int
	FrameSize int
	NumParams int
}

// Program is a whole compiled program.
type Program struct {
	Funcs      map[string]*FuncCode
	GlobSize   int
	GlobalInit map[int]uint64

	// decoded caches the timing program of replay's pipelined walk
	// (timing.go), built on first replay
	decoded atomic.Pointer[timingProgram]
}

// String disassembles the program deterministically (functions sorted by
// name).
func (p *Program) String() string {
	var buf []byte
	for _, name := range p.funcNames() {
		buf = appendFuncText(buf, name, p.Funcs[name])
	}
	return string(buf)
}

// funcNames returns the program's function names in sorted order.
func (p *Program) funcNames() []string {
	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// appendFuncText appends one function's disassembly: a header line, then
// one "  %4d: <instr>" line per instruction.
func appendFuncText(dst []byte, name string, f *FuncCode) []byte {
	dst = append(append(dst, "func "...), name...)
	dst = strconv.AppendInt(append(dst, " (regs="...), int64(f.NumRegs), 10)
	dst = strconv.AppendInt(append(dst, " frame="...), int64(f.FrameSize), 10)
	dst = append(dst, "):\n"...)
	for i := range f.Instrs {
		dst = append(dst, "  "...)
		for w := 1000; w > 1 && i < w; w /= 10 {
			dst = append(dst, ' ') // %4d's left padding
		}
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = f.Instrs[i].appendText(append(dst, ": "...))
		dst = append(dst, '\n')
	}
	return dst
}

// Clone deep-copies the program: instruction slices, per-instruction
// ArgRegs/FloatRs, and the global-init map are all fresh, so a pass may
// rewrite the clone (the hardening pass does) without disturbing the
// original.
func (p *Program) Clone() *Program {
	q := &Program{
		Funcs:    make(map[string]*FuncCode, len(p.Funcs)),
		GlobSize: p.GlobSize,
	}
	if p.GlobalInit != nil {
		q.GlobalInit = make(map[int]uint64, len(p.GlobalInit))
		for k, v := range p.GlobalInit {
			q.GlobalInit[k] = v
		}
	}
	for name, f := range p.Funcs {
		g := &FuncCode{
			Name:      f.Name,
			Instrs:    make([]Instr, len(f.Instrs)),
			NumRegs:   f.NumRegs,
			FrameSize: f.FrameSize,
			NumParams: f.NumParams,
		}
		copy(g.Instrs, f.Instrs)
		for i := range g.Instrs {
			if ar := g.Instrs[i].ArgRegs; ar != nil {
				g.Instrs[i].ArgRegs = append([]int(nil), ar...)
			}
			if fr := g.Instrs[i].FloatRs; fr != nil {
				g.Instrs[i].FloatRs = append([]bool(nil), fr...)
			}
		}
		q.Funcs[name] = g
	}
	return q
}
