package ir

import (
	"strings"
	"testing"
)

func TestTypeSizes(t *testing.T) {
	cases := []struct {
		t    *Type
		want int
	}{
		{IntType, 1},
		{FloatType, 1},
		{PtrTo(IntType), 1},
		{ArrayOf(IntType, 10), 10},
		{ArrayOf(ArrayOf(FloatType, 4), 3), 12},
		{&Type{Kind: KStruct, Fields: []Field{
			{Name: "a", Type: IntType, Off: 0},
			{Name: "b", Type: ArrayOf(FloatType, 2), Off: 1},
		}}, 3},
		{VoidType, 0},
	}
	for _, c := range cases {
		if got := c.t.Size(); got != c.want {
			t.Errorf("Size(%s) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestTypeEqual(t *testing.T) {
	if !PtrTo(IntType).Equal(PtrTo(IntType)) {
		t.Error("identical pointer types must be equal")
	}
	if PtrTo(IntType).Equal(PtrTo(FloatType)) {
		t.Error("int* must differ from double*")
	}
	if ArrayOf(IntType, 3).Equal(ArrayOf(IntType, 4)) {
		t.Error("array lengths are part of the type")
	}
	s1 := &Type{Kind: KStruct, Name: "n"}
	s2 := &Type{Kind: KStruct, Name: "n"}
	if !s1.Equal(s2) {
		t.Error("named structs compare by tag")
	}
	if IntType.Equal(FloatType) {
		t.Error("int != double")
	}
	var nilT *Type
	if IntType.Equal(nilT) {
		t.Error("non-nil != nil")
	}
}

func TestTypeString(t *testing.T) {
	cases := map[string]*Type{
		"int":      IntType,
		"double":   FloatType,
		"int*":     PtrTo(IntType),
		"double**": PtrTo(PtrTo(FloatType)),
		"int[4]":   ArrayOf(IntType, 4),
		"struct s": {Kind: KStruct, Name: "s"},
		"void":     VoidType,
	}
	for want, typ := range cases {
		if got := typ.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestOpProperties(t *testing.T) {
	comm := []Op{OpAdd, OpMul, OpEq, OpNe, OpAnd, OpOr, OpXor}
	for _, op := range comm {
		if !op.IsCommutative() {
			t.Errorf("%s should be commutative", op)
		}
	}
	nonComm := []Op{OpSub, OpDiv, OpMod, OpLt, OpShl}
	for _, op := range nonComm {
		if op.IsCommutative() {
			t.Errorf("%s should not be commutative", op)
		}
	}
	for _, op := range []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		if !op.IsComparison() {
			t.Errorf("%s should be a comparison", op)
		}
	}
	if OpAdd.IsComparison() {
		t.Error("+ is not a comparison")
	}
}

func TestSameOperand(t *testing.T) {
	s1 := &Sym{Name: "x"}
	s2 := &Sym{Name: "x"} // same name, different identity
	cases := []struct {
		a, b Operand
		want bool
	}{
		{&ConstInt{Val: 3}, &ConstInt{Val: 3}, true},
		{&ConstInt{Val: 3}, &ConstInt{Val: 4}, false},
		{&ConstFloat{Val: 1.5}, &ConstFloat{Val: 1.5}, true},
		{&Ref{Sym: s1, Ver: 2}, &Ref{Sym: s1, Ver: 2}, true},
		{&Ref{Sym: s1, Ver: 2}, &Ref{Sym: s1, Ver: 3}, false},
		{&Ref{Sym: s1, Ver: 2}, &Ref{Sym: s2, Ver: 2}, false},
		{&AddrOf{Sym: s1}, &AddrOf{Sym: s1}, true},
		{&ConstInt{Val: 0}, &Ref{Sym: s1}, false},
	}
	for i, c := range cases {
		if got := SameOperand(c.a, c.b); got != c.want {
			t.Errorf("case %d: SameOperand = %v, want %v", i, got, c.want)
		}
	}
	// version-insensitive variant
	if !SameLeafIgnoringVersion(&Ref{Sym: s1, Ver: 2}, &Ref{Sym: s1, Ver: 9}) {
		t.Error("SameLeafIgnoringVersion must ignore versions")
	}
}

func TestVerifyCatchesBadCFG(t *testing.T) {
	prog := NewProgram()
	f := prog.NewFunc("f", VoidType)
	a := f.NewBlock()
	b := f.NewBlock()
	f.Entry = a
	// jump with two successors: invalid
	a.Term = Term{Kind: TermJump}
	Connect(a, b)
	Connect(a, b)
	b.Term = Term{Kind: TermRet}
	if err := Verify(f); err == nil {
		t.Error("expected verification failure for jump with 2 successors")
	}

	// asymmetric edge
	prog2 := NewProgram()
	g := prog2.NewFunc("g", VoidType)
	c := g.NewBlock()
	d := g.NewBlock()
	g.Entry = c
	c.Term = Term{Kind: TermJump}
	c.Succs = append(c.Succs, d) // no back pred edge
	d.Term = Term{Kind: TermRet}
	if err := Verify(g); err == nil || !strings.Contains(err.Error(), "pred") {
		t.Errorf("expected missing-pred error, got %v", err)
	}
}

func TestVerifyCatchesUnknownCall(t *testing.T) {
	prog := NewProgram()
	f := prog.NewFunc("f", VoidType)
	a := f.NewBlock()
	f.Entry = a
	a.Term = Term{Kind: TermRet}
	a.Stmts = append(a.Stmts, &Call{Fn: "nosuch"})
	if err := Verify(f); err == nil {
		t.Error("expected unknown-function error")
	}
	// builtins are fine
	a.Stmts = []Stmt{&Call{Fn: "arg", Args: []Operand{&ConstInt{Val: 0}},
		Dst: &Ref{Sym: f.NewTemp(IntType)}}}
	if err := Verify(f); err != nil {
		t.Errorf("builtin call rejected: %v", err)
	}
}

func TestVerifySSADetectsDoubleDef(t *testing.T) {
	prog := NewProgram()
	f := prog.NewFunc("f", VoidType)
	a := f.NewBlock()
	f.Entry = a
	a.Term = Term{Kind: TermRet}
	x := f.NewTemp(IntType)
	a.Stmts = []Stmt{
		&Assign{Dst: &Ref{Sym: x, Ver: 1}, RK: RHSCopy, A: &ConstInt{Val: 1}},
		&Assign{Dst: &Ref{Sym: x, Ver: 1}, RK: RHSCopy, A: &ConstInt{Val: 2}},
	}
	if err := VerifySSA(f); err == nil {
		t.Error("expected double-definition error")
	}
}

func TestSymInMemory(t *testing.T) {
	prog := NewProgram()
	g := prog.NewGlobal("g", IntType)
	if !g.InMemory() {
		t.Error("globals are memory-resident")
	}
	f := prog.NewFunc("f", VoidType)
	x := f.NewSym("x", IntType, SymLocal)
	if x.InMemory() {
		t.Error("plain scalar local is register-resident")
	}
	x.AddrTaken = true
	if !x.InMemory() {
		t.Error("address-taken local is memory-resident")
	}
	arr := f.NewSym("a", ArrayOf(IntType, 4), SymLocal)
	if !arr.InMemory() {
		t.Error("aggregates are memory-resident")
	}
	v := &Sym{Name: "v$1", Kind: SymVirtual, Type: VoidType}
	if v.InMemory() {
		t.Error("virtual variables have no storage")
	}
}

func TestGlobalAddressAssignment(t *testing.T) {
	prog := NewProgram()
	a := prog.NewGlobal("a", IntType)
	b := prog.NewGlobal("b", ArrayOf(IntType, 5))
	c := prog.NewGlobal("c", FloatType)
	if a.Addr != 0 || b.Addr != 1 || c.Addr != 6 {
		t.Errorf("addresses %d,%d,%d; want 0,1,6", a.Addr, b.Addr, c.Addr)
	}
	if prog.GlobSize != 7 {
		t.Errorf("GlobSize = %d, want 7", prog.GlobSize)
	}
}

func TestFrameOffsets(t *testing.T) {
	prog := NewProgram()
	f := prog.NewFunc("f", VoidType)
	r := f.NewSym("r", IntType, SymLocal) // register-resident
	m1 := f.NewSym("m1", IntType, SymLocal)
	m1.AddrTaken = true
	m2 := f.NewSym("m2", ArrayOf(FloatType, 3), SymLocal)
	f.AssignFrameOffsets()
	if f.FrameSize != 4 {
		t.Errorf("FrameSize = %d, want 4", f.FrameSize)
	}
	if m1.Addr == m2.Addr {
		t.Error("distinct locals share a frame slot")
	}
	_ = r
}

func TestSyntaxKeysIdenticalTrees(t *testing.T) {
	// two loads through the same address expression must share a key;
	// a different expression must not
	prog := NewProgram()
	f := prog.NewFunc("f", VoidType)
	prog.FuncMap["f"] = f
	b := f.NewBlock()
	f.Entry = b
	b.Term = Term{Kind: TermRet}

	p := f.NewSym("p", PtrTo(IntType), SymParam)
	q := f.NewSym("q", PtrTo(IntType), SymParam)
	t1 := f.NewTemp(IntType)
	t2 := f.NewTemp(IntType)
	t3 := f.NewTemp(IntType)
	ld1 := &Assign{Dst: &Ref{Sym: t1}, RK: RHSLoad, A: &Ref{Sym: p}, Site: 1}
	ld2 := &Assign{Dst: &Ref{Sym: t2}, RK: RHSLoad, A: &Ref{Sym: p}, Site: 2}
	ld3 := &Assign{Dst: &Ref{Sym: t3}, RK: RHSLoad, A: &Ref{Sym: q}, Site: 3}
	b.Stmts = []Stmt{ld1, ld2, ld3}

	keys := SyntaxKeys(f)
	if keys[ld1] != keys[ld2] {
		t.Errorf("identical *p loads have different keys: %q vs %q", keys[ld1], keys[ld2])
	}
	if keys[ld1] == keys[ld3] {
		t.Errorf("*p and *q share a key: %q", keys[ld1])
	}
}

func TestSyntaxKeysChaseSingleDefTemps(t *testing.T) {
	// t = a + 4; load *t twice through different temps with the same tree
	prog := NewProgram()
	f := prog.NewFunc("f", VoidType)
	prog.FuncMap["f"] = f
	blk := f.NewBlock()
	f.Entry = blk
	blk.Term = Term{Kind: TermRet}

	a := f.NewSym("a", PtrTo(IntType), SymParam)
	u1 := f.NewTemp(PtrTo(IntType))
	u2 := f.NewTemp(PtrTo(IntType))
	d1 := f.NewTemp(IntType)
	d2 := f.NewTemp(IntType)
	add1 := &Assign{Dst: &Ref{Sym: u1}, RK: RHSBinary, Op: OpAdd, A: &Ref{Sym: a}, B: &ConstInt{Val: 4}}
	add2 := &Assign{Dst: &Ref{Sym: u2}, RK: RHSBinary, Op: OpAdd, A: &Ref{Sym: a}, B: &ConstInt{Val: 4}}
	ld1 := &Assign{Dst: &Ref{Sym: d1}, RK: RHSLoad, A: &Ref{Sym: u1}, Site: 1}
	ld2 := &Assign{Dst: &Ref{Sym: d2}, RK: RHSLoad, A: &Ref{Sym: u2}, Site: 2}
	blk.Stmts = []Stmt{add1, add2, ld1, ld2}

	keys := SyntaxKeys(f)
	if keys[ld1] != keys[ld2] {
		t.Errorf("same-tree loads differ: %q vs %q", keys[ld1], keys[ld2])
	}
	if !strings.Contains(keys[ld1], "+") {
		t.Errorf("key should contain the reconstructed tree, got %q", keys[ld1])
	}
}

func TestSyntaxKeysCommutativeCanonicalization(t *testing.T) {
	prog := NewProgram()
	f := prog.NewFunc("f", VoidType)
	prog.FuncMap["f"] = f
	blk := f.NewBlock()
	f.Entry = blk
	blk.Term = Term{Kind: TermRet}

	a := f.NewSym("a", PtrTo(IntType), SymParam)
	b := f.NewSym("b", IntType, SymParam)
	u1 := f.NewTemp(PtrTo(IntType))
	u2 := f.NewTemp(PtrTo(IntType))
	d1 := f.NewTemp(IntType)
	d2 := f.NewTemp(IntType)
	blk.Stmts = []Stmt{
		&Assign{Dst: &Ref{Sym: u1}, RK: RHSBinary, Op: OpAdd, A: &Ref{Sym: a}, B: &Ref{Sym: b}},
		&Assign{Dst: &Ref{Sym: u2}, RK: RHSBinary, Op: OpAdd, A: &Ref{Sym: b}, B: &Ref{Sym: a}},
	}
	ld1 := &Assign{Dst: &Ref{Sym: d1}, RK: RHSLoad, A: &Ref{Sym: u1}, Site: 1}
	ld2 := &Assign{Dst: &Ref{Sym: d2}, RK: RHSLoad, A: &Ref{Sym: u2}, Site: 2}
	blk.Stmts = append(blk.Stmts, ld1, ld2)

	keys := SyntaxKeys(f)
	if keys[ld1] != keys[ld2] {
		t.Errorf("a+b and b+a should canonicalize to one key: %q vs %q", keys[ld1], keys[ld2])
	}
}

func TestStmtStringForms(t *testing.T) {
	x := &Sym{Name: "x", Type: IntType}
	v := &Sym{Name: "v$0", Kind: SymVirtual, Type: VoidType}
	a := &Assign{Dst: &Ref{Sym: x, Ver: 2}, RK: RHSBinary, Op: OpAdd,
		A: &Ref{Sym: x, Ver: 1}, B: &ConstInt{Val: 1}}
	if got := a.String(); got != "x_2 = x_1 + 1" {
		t.Errorf("Assign.String() = %q", got)
	}
	st := &IStore{Addr: &Ref{Sym: x, Ver: 1}, Val: &ConstInt{Val: 9},
		Chis: []*Chi{{Sym: v, NewVer: 2, OldVer: 1, Spec: true}}}
	s := st.String()
	if !strings.Contains(s, "*x_1 = 9") || !strings.Contains(s, "chi_s") {
		t.Errorf("IStore.String() = %q", s)
	}
	mu := &Mu{Sym: v, Ver: 3, Spec: true}
	if mu.String() != "mu_s(v$0_3)" {
		t.Errorf("Mu.String() = %q", mu.String())
	}
	spec := SpecFlags{AdvLoad: true, SpecLoad: true}
	if spec.String() != " <ld.a,ld.s>" {
		t.Errorf("SpecFlags.String() = %q", spec.String())
	}
}

func TestRemoveUnreachable(t *testing.T) {
	prog := NewProgram()
	f := prog.NewFunc("f", VoidType)
	a := f.NewBlock()
	b := f.NewBlock()
	dead := f.NewBlock()
	f.Entry = a
	Connect(a, b)
	Connect(dead, b) // dead -> b, but dead itself is unreachable
	a.Term = Term{Kind: TermJump}
	b.Term = Term{Kind: TermRet}
	dead.Term = Term{Kind: TermJump}
	f.RemoveUnreachable()
	if len(f.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(f.Blocks))
	}
	if got := len(b.Preds); got != 1 {
		t.Errorf("b should keep only the live pred, has %d", got)
	}
	if err := Verify(f); err != nil {
		t.Fatal(err)
	}
}

func TestProgramStringIsStable(t *testing.T) {
	prog := NewProgram()
	prog.NewGlobal("beta", IntType)
	prog.NewGlobal("alpha", FloatType)
	f := prog.NewFunc("f", IntType)
	b := f.NewBlock()
	f.Entry = b
	x := f.NewTemp(IntType)
	b.Stmts = []Stmt{&Assign{Dst: &Ref{Sym: x, Ver: 1}, RK: RHSCopy, A: &ConstInt{Val: 1}}}
	b.Term = Term{Kind: TermRet, Val: &Ref{Sym: x, Ver: 1}}
	first := prog.String()
	for i := 0; i < 5; i++ {
		if prog.String() != first {
			t.Fatal("Program.String() not deterministic")
		}
	}
	if !strings.Contains(first, "globals:") || !strings.Contains(first, "func f()") {
		t.Errorf("rendering missing sections:\n%s", first)
	}
}
