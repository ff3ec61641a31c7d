package profile

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func TestLocStringForms(t *testing.T) {
	prog := ir.NewProgram()
	g := prog.NewGlobal("glob", ir.IntType)
	f := prog.NewFunc("fn", ir.VoidType)
	l := f.NewSym("loc", ir.IntType, ir.SymLocal)

	cases := []struct {
		loc  Loc
		want string
	}{
		{GlobalLoc(g), "glob"},
		{LocalLoc(f, l), "fn:loc"},
		{HeapLoc(7, 0), "heap@7"},
		{HeapLoc(7, 3), "heap@7/3"},
	}
	for _, c := range cases {
		if got := c.loc.Name(prog); got != c.want {
			t.Errorf("Loc.Name() = %q, want %q", got, c.want)
		}
	}
}

func TestLocSetOperations(t *testing.T) {
	prog := ir.NewProgram()
	a := prog.NewGlobal("a", ir.IntType)
	b := prog.NewGlobal("b", ir.IntType)
	s := LocSet{}
	la := GlobalLoc(a)
	lb := GlobalLoc(b)
	s.Add(la)
	if !s.Has(la) || s.Has(lb) {
		t.Error("Add/Has broken")
	}
	s2 := LocSet{}
	s2.Add(lb)
	s.AddAll(s2)
	if !s.Has(lb) {
		t.Error("AddAll broken")
	}
	// deterministic, sorted rendering
	if got := s.Format(prog); got != "{a, b}" {
		t.Errorf("Format() = %q", got)
	}
}

func TestProfileSetAccessorsCreateOnDemand(t *testing.T) {
	p := New()
	p.LoadSet(1).Add(HeapLoc(9, 0))
	p.StoreSet(2).Add(HeapLoc(9, 0))
	p.ModSet(3).Add(HeapLoc(9, 0))
	p.RefSet(4).Add(HeapLoc(9, 0))
	if len(p.LoadLocs) != 1 || len(p.StoreLocs) != 1 || len(p.CallMod) != 1 || len(p.CallRef) != 1 {
		t.Error("set accessors did not register their maps")
	}
	// repeated access returns the same set
	if len(p.LoadSet(1)) != 1 {
		t.Error("LoadSet not memoized")
	}
}

// buildDiamond constructs entry → (left|right) → join → exit.
func buildDiamond() (*ir.Program, *ir.Func, []*ir.Block) {
	prog := ir.NewProgram()
	f := prog.NewFunc("main", ir.IntType)
	entry, left, right, join := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = entry
	ir.Connect(entry, left)
	ir.Connect(entry, right)
	ir.Connect(left, join)
	ir.Connect(right, join)
	entry.Term = ir.Term{Kind: ir.TermCond, Cond: &ir.ConstInt{Val: 1}}
	left.Term = ir.Term{Kind: ir.TermJump}
	right.Term = ir.Term{Kind: ir.TermJump}
	join.Term = ir.Term{Kind: ir.TermRet}
	return prog, f, []*ir.Block{entry, left, right, join}
}

func TestApplyEdges(t *testing.T) {
	prog, f, blocks := buildDiamond()
	p := New()
	p.BlockCount[BlockOf(f, blocks[0])] = 100
	p.BlockCount[BlockOf(f, blocks[1])] = 70
	p.BlockCount[BlockOf(f, blocks[2])] = 30
	p.BlockCount[BlockOf(f, blocks[3])] = 100
	p.EdgeCount[BlockOf(f, blocks[0])] = []uint64{70, 30}
	p.ApplyEdges(prog)
	// frequencies are per-entry: entry is 1 no matter how many times the
	// training input called the function
	if blocks[0].Freq != 1 {
		t.Errorf("entry freq = %v, want 1", blocks[0].Freq)
	}
	if blocks[0].EdgeFreq[0] != 0.7 || blocks[0].EdgeFreq[1] != 0.3 {
		t.Errorf("edge freqs = %v, want [0.7 0.3]", blocks[0].EdgeFreq)
	}
	if blocks[1].Freq != 0.7 || blocks[2].Freq != 0.3 {
		t.Errorf("branch freqs = %v, %v, want 0.7, 0.3", blocks[1].Freq, blocks[2].Freq)
	}
	// unexecuted functions keep zero frequencies without panicking
	if blocks[1].EdgeFreq == nil {
		t.Error("EdgeFreq slices must always be allocated")
	}
}

// TestApplyEdgesNormalizesPerFunction is the regression test for the
// frequency-accounting bug: raw counts made a helper called 1000× look
// three orders of magnitude hotter than main even when, per invocation,
// both have identical shape. Each function must be scaled by its own
// entry count so frequencies are comparable across functions.
func TestApplyEdgesNormalizesPerFunction(t *testing.T) {
	prog := ir.NewProgram()
	mkDiamond := func(name string) (*ir.Func, []*ir.Block) {
		f := prog.NewFunc(name, ir.IntType)
		entry, left, right, join := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
		f.Entry = entry
		ir.Connect(entry, left)
		ir.Connect(entry, right)
		ir.Connect(left, join)
		ir.Connect(right, join)
		entry.Term = ir.Term{Kind: ir.TermCond, Cond: &ir.ConstInt{Val: 1}}
		left.Term = ir.Term{Kind: ir.TermJump}
		right.Term = ir.Term{Kind: ir.TermJump}
		join.Term = ir.Term{Kind: ir.TermRet}
		return f, []*ir.Block{entry, left, right, join}
	}
	mf, mb := mkDiamond("main")
	hf, hb := mkDiamond("helper")

	p := New()
	// main runs once, helper 1000 times; both split 70/30 per entry
	p.BlockCount[BlockOf(mf, mb[0])], p.BlockCount[BlockOf(mf, mb[1])], p.BlockCount[BlockOf(mf, mb[2])], p.BlockCount[BlockOf(mf, mb[3])] = 1, 1, 0, 1
	p.EdgeCount[BlockOf(mf, mb[0])] = []uint64{1, 0}
	p.BlockCount[BlockOf(hf, hb[0])], p.BlockCount[BlockOf(hf, hb[1])], p.BlockCount[BlockOf(hf, hb[2])], p.BlockCount[BlockOf(hf, hb[3])] = 1000, 700, 300, 1000
	p.EdgeCount[BlockOf(hf, hb[0])] = []uint64{700, 300}
	p.ApplyEdges(prog)

	if mb[0].Freq != 1 || hb[0].Freq != 1 {
		t.Errorf("entry freqs = %v, %v, want 1, 1", mb[0].Freq, hb[0].Freq)
	}
	if hb[1].Freq != 0.7 || hb[2].Freq != 0.3 {
		t.Errorf("helper branch freqs = %v, %v, want 0.7, 0.3", hb[1].Freq, hb[2].Freq)
	}
	// the bug: helper's blocks dwarfed main's by the call-count ratio
	if hb[3].Freq != mb[3].Freq {
		t.Errorf("join freqs differ across functions: helper %v vs main %v",
			hb[3].Freq, mb[3].Freq)
	}
}

func TestStaticEstimateLoopsAreHot(t *testing.T) {
	prog := ir.NewProgram()
	f := prog.NewFunc("main", ir.IntType)
	entry, header, body, exit := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = entry
	ir.Connect(entry, header)
	ir.Connect(header, body)
	ir.Connect(header, exit)
	ir.Connect(body, header)
	entry.Term = ir.Term{Kind: ir.TermJump}
	header.Term = ir.Term{Kind: ir.TermCond, Cond: &ir.ConstInt{Val: 1}}
	body.Term = ir.Term{Kind: ir.TermJump}
	exit.Term = ir.Term{Kind: ir.TermRet}

	StaticEstimate(prog)
	if header.Freq <= entry.Freq {
		t.Errorf("loop header (%v) should be hotter than entry (%v)", header.Freq, entry.Freq)
	}
	if body.Freq <= exit.Freq {
		t.Errorf("loop body (%v) should be hotter than exit (%v)", body.Freq, exit.Freq)
	}
	// a 9/10-stay latch converges near 10 iterations per entry
	if header.Freq < 5 || header.Freq > 15 {
		t.Errorf("loop header freq = %v, want ~10", header.Freq)
	}
}

// TestStaticEstimateFlowConservation checks the Kirchhoff property the
// old estimate violated: for every non-entry block, incoming edge
// frequency mass equals the block's own frequency, and a block's
// outgoing edge frequencies sum back to its frequency.
func TestStaticEstimateFlowConservation(t *testing.T) {
	prog := ir.NewProgram()
	f := prog.NewFunc("main", ir.IntType)
	entry, header, body, exit := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = entry
	ir.Connect(entry, header)
	ir.Connect(header, body)
	ir.Connect(header, exit)
	ir.Connect(body, header)
	entry.Term = ir.Term{Kind: ir.TermJump}
	header.Term = ir.Term{Kind: ir.TermCond, Cond: &ir.ConstInt{Val: 1}}
	body.Term = ir.Term{Kind: ir.TermJump}
	exit.Term = ir.Term{Kind: ir.TermRet}

	StaticEstimate(prog)
	const eps = 1e-6
	for _, b := range f.Blocks {
		var out float64
		for _, ef := range b.EdgeFreq {
			out += ef
		}
		if len(b.Succs) > 0 && abs(out-b.Freq) > eps {
			t.Errorf("B%d: outgoing edges sum to %v, block freq %v", b.ID, out, b.Freq)
		}
		if b == f.Entry {
			continue
		}
		var in float64
		for _, p := range b.Preds {
			for i, s := range p.Succs {
				if s == b {
					in += p.EdgeFreq[i]
				}
			}
		}
		if abs(in-b.Freq) > eps {
			t.Errorf("B%d: incoming edges sum to %v, block freq %v", b.ID, in, b.Freq)
		}
	}
	// the latch split itself: 9/10 stays, 1/10 exits
	ratio := header.EdgeFreq[0] / header.EdgeFreq[1]
	if abs(ratio-9) > eps {
		t.Errorf("latch stay/exit ratio = %v, want 9", ratio)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestLocSetStringStable(t *testing.T) {
	prog := ir.NewProgram()
	syms := []*ir.Sym{
		prog.NewGlobal("zz", ir.IntType),
		prog.NewGlobal("aa", ir.IntType),
		prog.NewGlobal("mm", ir.IntType),
	}
	s := LocSet{}
	for _, sym := range syms {
		s.Add(GlobalLoc(sym))
	}
	first := s.Format(prog)
	for i := 0; i < 20; i++ {
		if s.Format(prog) != first {
			t.Fatal("LocSet.Format() not deterministic")
		}
	}
	if !strings.HasPrefix(first, "{aa") {
		t.Errorf("not sorted: %q", first)
	}
}

func TestProfileSerializationRoundTrip(t *testing.T) {
	prog, fn, blocks := buildDiamondNamed()
	entry := BlockOf(fn, blocks[0])
	p := New()
	p.BlockCount[entry] = 42
	p.EdgeCount[entry] = []uint64{30, 12}
	g := prog.Globals[0]
	p.LoadSet(5).Add(GlobalLoc(g))
	p.LoadSet(5).Add(HeapLoc(9, 2))
	p.StoreSet(6).Add(LocalLoc(prog.Funcs[0], fnLocal(prog)))
	p.ModSet(7).Add(GlobalLoc(g))
	p.RefSet(8).Add(HeapLoc(3, 0))

	data, err := Marshal(prog, p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Unmarshal(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	if p2.BlockCount[entry] != 42 {
		t.Errorf("block count lost: %v", p2.BlockCount)
	}
	if len(p2.EdgeCount[entry]) != 2 || p2.EdgeCount[entry][0] != 30 {
		t.Errorf("edge counts lost: %v", p2.EdgeCount)
	}
	if p.LoadLocs[5].Format(prog) != p2.LoadLocs[5].Format(prog) {
		t.Errorf("load locs: %s != %s", p2.LoadLocs[5].Format(prog), p.LoadLocs[5].Format(prog))
	}
	if p.StoreLocs[6].Format(prog) != p2.StoreLocs[6].Format(prog) {
		t.Errorf("store locs: %s != %s", p2.StoreLocs[6].Format(prog), p.StoreLocs[6].Format(prog))
	}
	if p.CallMod[7].Format(prog) != p2.CallMod[7].Format(prog) {
		t.Errorf("mod locs mismatch")
	}
	if p.CallRef[8].Format(prog) != p2.CallRef[8].Format(prog) {
		t.Errorf("ref locs mismatch")
	}
}

func TestUnmarshalToleratesStaleLocs(t *testing.T) {
	prog, _, _ := buildDiamondNamed()
	data := []byte(`{"version":1,"loads":{"5":["g:nosuchglobal","h:1/0"]}}`)
	p, err := Unmarshal(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	if !p.LoadLocs[5].Has(HeapLoc(1, 0)) {
		t.Error("valid loc dropped alongside the stale one")
	}
	if len(p.LoadLocs[5]) != 1 {
		t.Errorf("stale loc kept: %s", p.LoadLocs[5].Format(prog))
	}
}

func TestUnmarshalRejectsBadVersionAndJSON(t *testing.T) {
	prog, _, _ := buildDiamondNamed()
	if _, err := Unmarshal(prog, []byte(`{"version":3}`)); err == nil {
		t.Error("version 3 accepted")
	}
	if _, err := Unmarshal(prog, []byte(`{nonsense`)); err == nil {
		t.Error("bad JSON accepted")
	}
}

// TestSerializationKeepsCountsAndTotals is the version-2 round trip: the
// multiset occurrence counts and per-site execution totals that the
// cost-model policy computes alias probabilities from must survive
// Marshal/Unmarshal exactly.
func TestSerializationKeepsCountsAndTotals(t *testing.T) {
	prog, _, _ := buildDiamondNamed()
	g := prog.Globals[0]
	p := New()
	p.LoadSet(5).AddN(GlobalLoc(g), 7)
	p.LoadSet(5).Add(HeapLoc(9, 2))
	p.SiteTotal[5] = 100
	p.StoreSet(6).AddN(LocalLoc(prog.Funcs[0], fnLocal(prog)), 3)
	p.SiteTotal[6] = 40

	data, err := Marshal(prog, p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Unmarshal(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.LoadLocs[5].Count(GlobalLoc(g)); got != 7 {
		t.Errorf("load count = %d, want 7", got)
	}
	if got := p2.LoadLocs[5].Count(HeapLoc(9, 2)); got != 1 {
		t.Errorf("heap load count = %d, want 1", got)
	}
	if p2.Total(5) != 100 || p2.Total(6) != 40 {
		t.Errorf("totals = %d, %d, want 100, 40", p2.Total(5), p2.Total(6))
	}
	if got := p2.StoreLocs[6].Count(LocalLoc(prog.Funcs[0], fnLocal(prog))); got != 3 {
		t.Errorf("store count = %d, want 3", got)
	}
}

// TestUnmarshalVersion1Compat reads the pre-multiset format: plain loc
// lists, no counts, no totals. Membership must be preserved (count 1
// each) and totals stay zero, which degrades the cost policy to the old
// observed/not-observed semantics.
func TestUnmarshalVersion1Compat(t *testing.T) {
	prog, _, _ := buildDiamondNamed()
	data := []byte(`{"version":1,"loads":{"5":["g:gv","h:9/2"]},"stores":{"6":["l:main:lv"]}}`)
	p, err := Unmarshal(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Globals[0]
	if !p.LoadLocs[5].Has(GlobalLoc(g)) {
		t.Error("v1 global load loc lost")
	}
	if got := p.LoadLocs[5].Count(GlobalLoc(g)); got != 1 {
		t.Errorf("v1 load count = %d, want 1", got)
	}
	if !p.StoreLocs[6].Has(LocalLoc(prog.Funcs[0], fnLocal(prog))) {
		t.Error("v1 store loc lost")
	}
	if p.Total(5) != 0 || p.Total(6) != 0 {
		t.Errorf("v1 totals = %d, %d, want 0, 0", p.Total(5), p.Total(6))
	}
}

// buildDiamondNamed is buildDiamond plus a global and a local symbol.
func buildDiamondNamed() (*ir.Program, *ir.Func, []*ir.Block) {
	prog, f, blocks := buildDiamond()
	prog.NewGlobal("gv", ir.IntType)
	f.NewSym("lv", ir.IntType, ir.SymLocal)
	return prog, f, blocks
}

func fnLocal(prog *ir.Program) *ir.Sym {
	for _, s := range prog.Funcs[0].Syms {
		if s.Name == "lv" {
			return s
		}
	}
	return nil
}
