package machine

import (
	"fmt"
	"strings"
	"testing"
)

// fmtInstr is the fmt-based rendering Instr.appendText must reproduce
// byte for byte: program fingerprints hash this text, and the golden
// fingerprint file pins them.
func fmtInstr(i Instr) string {
	switch i.Op {
	case OpMovI:
		return fmt.Sprintf("movi r%d, %d", i.Rd, i.Imm)
	case OpMov:
		return fmt.Sprintf("mov r%d, r%d", i.Rd, i.Rs)
	case OpLEA:
		if i.IsFrame {
			return fmt.Sprintf("lea r%d, fp+%d", i.Rd, i.Imm)
		}
		return fmt.Sprintf("lea r%d, g@%d", i.Rd, i.Imm)
	case OpLd, OpLdF, OpLdA, OpLdFA, OpLdC, OpLdFC, OpLdS, OpLdFS, OpLdSA, OpLdFSA:
		return fmt.Sprintf("%s r%d, [r%d]", i.Op, i.Rd, i.Rs)
	case OpSt, OpStF:
		return fmt.Sprintf("%s [r%d], r%d", i.Op, i.Rd, i.Rs)
	case OpBr:
		return fmt.Sprintf("br %d", i.Target)
	case OpBeqz:
		return fmt.Sprintf("beqz r%d, %d", i.Rs, i.Target)
	case OpBnez:
		return fmt.Sprintf("bnez r%d, %d", i.Rs, i.Target)
	case OpCall:
		return fmt.Sprintf("call %s args=%v -> r%d", i.Fn, i.ArgRegs, i.Rd)
	case OpRet:
		if i.Rs >= 0 {
			return fmt.Sprintf("ret r%d", i.Rs)
		}
		return "ret"
	case OpPrint:
		return fmt.Sprintf("print %v", i.ArgRegs)
	case OpArg:
		return fmt.Sprintf("arg r%d, r%d", i.Rd, i.Rs)
	case OpAlloc:
		return fmt.Sprintf("alloc r%d, r%d", i.Rd, i.Rs)
	case OpFence:
		return "fence"
	}
	name, ok := opNames[i.Op]
	if !ok {
		name = fmt.Sprintf("op(%d)", int(i.Op))
	}
	return fmt.Sprintf("%s r%d, r%d, r%d", name, i.Rd, i.Rs, i.Rt)
}

// TestInstrTextMatchesFmt renders every opcode (plus an unknown one)
// with a spread of operand values and compares it with fmtInstr, and
// checks a function's "%4d" line numbering across the width changes.
func TestInstrTextMatchesFmt(t *testing.T) {
	argLists := [][]int{nil, {}, {3}, {0, -1, 12}}
	for op := OpNop; op <= OpFence+1; op++ {
		for k, v := range []int{0, 7, -3, 1234567} {
			in := Instr{
				Op: op, Rd: v, Rs: -v - 1, Rt: v + 2, Imm: int64(v) * -1000003,
				Target: v * 2, Fn: "callee", ArgRegs: argLists[k], IsFrame: k%2 == 0,
			}
			if got, want := in.String(), fmtInstr(in); got != want {
				t.Errorf("%v: text %q, want %q", op, got, want)
			}
		}
	}

	f := &FuncCode{Name: "f", NumRegs: 4, FrameSize: 2, Instrs: make([]Instr, 10001)}
	for i := range f.Instrs {
		f.Instrs[i] = Instr{Op: OpMovI, Rd: i % 4, Imm: int64(i)}
	}
	var want strings.Builder
	fmt.Fprintf(&want, "func %s (regs=%d frame=%d):\n", "f", f.NumRegs, f.FrameSize)
	for i, ins := range f.Instrs {
		fmt.Fprintf(&want, "  %4d: %s\n", i, fmtInstr(ins))
	}
	if got := (&Program{Funcs: map[string]*FuncCode{"f": f}}).String(); got != want.String() {
		t.Error("Program.String differs from the fmt rendering")
	}
}
