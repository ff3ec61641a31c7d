package ir

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCFG builds a connected CFG with n blocks and some extra edges from
// the given source of randomness. Block 0 is the entry; every block gets a
// terminator consistent with its successor count.
func randomCFG(rng *rand.Rand, n int) *Func {
	prog := NewProgram()
	f := prog.NewFunc("f", IntType)
	blocks := make([]*Block, n)
	for i := 0; i < n; i++ {
		blocks[i] = f.NewBlock()
	}
	f.Entry = blocks[0]
	// spanning structure: each block i>0 gets an edge from some j<i, so
	// everything is reachable
	for i := 1; i < n; i++ {
		Connect(blocks[rng.Intn(i)], blocks[i])
	}
	// extra edges, including back edges
	extra := rng.Intn(n + 1)
	for e := 0; e < extra; e++ {
		from := blocks[rng.Intn(n)]
		to := blocks[rng.Intn(n)]
		if len(from.Succs) >= 2 {
			continue
		}
		Connect(from, to)
	}
	// terminators
	cond := &ConstInt{Val: 1}
	for _, b := range blocks {
		switch len(b.Succs) {
		case 0:
			b.Term = Term{Kind: TermRet}
		case 1:
			b.Term = Term{Kind: TermJump}
		default:
			b.Term = Term{Kind: TermCond, Cond: cond}
		}
	}
	return f
}

// naiveDominators computes dominators by the textbook dataflow definition,
// as the oracle for the Cooper-Harvey-Kennedy implementation.
func naiveDominators(f *Func) map[*Block]map[*Block]bool {
	all := map[*Block]bool{}
	for _, b := range f.Blocks {
		all[b] = true
	}
	dom := map[*Block]map[*Block]bool{}
	for _, b := range f.Blocks {
		if b == f.Entry {
			dom[b] = map[*Block]bool{b: true}
		} else {
			full := map[*Block]bool{}
			for x := range all {
				full[x] = true
			}
			dom[b] = full
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if b == f.Entry {
				continue
			}
			var inter map[*Block]bool
			for _, p := range b.Preds {
				if inter == nil {
					inter = map[*Block]bool{}
					for x := range dom[p] {
						inter[x] = true
					}
				} else {
					for x := range inter {
						if !dom[p][x] {
							delete(inter, x)
						}
					}
				}
			}
			if inter == nil {
				inter = map[*Block]bool{}
			}
			inter[b] = true
			if len(inter) != len(dom[b]) {
				dom[b] = inter
				changed = true
				continue
			}
			for x := range inter {
				if !dom[b][x] {
					dom[b] = inter
					changed = true
					break
				}
			}
		}
	}
	return dom
}

func TestDominatorsMatchNaiveOracle(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	err := quick.Check(func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(sz)%14
		f := randomCFG(rng, n)
		dt := BuildDomTree(f)
		oracle := naiveDominators(f)
		for _, b := range f.Blocks {
			for _, a := range f.Blocks {
				want := oracle[b][a]
				got := dt.Dominates(a, b)
				if want != got {
					t.Logf("seed=%d n=%d: Dominates(B%d, B%d) = %v, oracle %v", seed, n, a.ID, b.ID, got, want)
					return false
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// TestPreorderNumbering checks the preorder numbers against a recursive
// walk of Children and the subtree intervals against the idom chain,
// with an unreachable block that must dominate only itself.
func TestPreorderNumbering(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	err := quick.Check(func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomCFG(rng, 2+int(sz)%14)
		dead := f.NewBlock()
		Connect(dead, f.Blocks[rng.Intn(len(f.Blocks)-1)])
		dt := BuildDomTree(f)
		var walk []*Block
		var visit func(b *Block)
		visit = func(b *Block) {
			walk = append(walk, b)
			for _, c := range dt.Children[b] {
				visit(c)
			}
		}
		visit(f.Entry)
		if len(walk) != len(dt.Preorder()) {
			return false
		}
		for i, b := range walk {
			if dt.Preorder()[i] != b || dt.PreNum(b) != i {
				return false
			}
		}
		if dt.PreNum(dead) != -1 {
			return false
		}
		chain := func(a, b *Block) bool {
			for ; b != nil; b = dt.Idom[b] {
				if a == b {
					return true
				}
			}
			return false
		}
		for _, a := range walk {
			i := dt.PreNum(a)
			for _, b := range walk {
				j := dt.PreNum(b)
				if (i <= j && j <= dt.SubtreeEnd(i)) != chain(a, b) {
					return false
				}
			}
			if dt.Dominates(a, dead) || dt.Dominates(dead, a) {
				return false
			}
		}
		return dt.Dominates(dead, dead)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDominanceFrontierDefinition(t *testing.T) {
	// b ∈ DF(a) iff a dominates a predecessor of b but does not strictly
	// dominate b
	cfg := &quick.Config{MaxCount: 60}
	err := quick.Check(func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(sz)%14
		f := randomCFG(rng, n)
		dt := BuildDomTree(f)
		inFrontier := func(a, b *Block) bool {
			for _, x := range dt.Frontier[a] {
				if x == b {
					return true
				}
			}
			return false
		}
		for _, a := range f.Blocks {
			for _, b := range f.Blocks {
				domPred := false
				for _, p := range b.Preds {
					if dt.Dominates(a, p) {
						domPred = true
					}
				}
				want := domPred && !(dt.Dominates(a, b) && a != b)
				if want != inFrontier(a, b) {
					t.Logf("seed=%d: DF mismatch a=B%d b=B%d want=%v", seed, a.ID, b.ID, want)
					return false
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIteratedFrontierIsClosed(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	err := quick.Check(func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(sz)%12
		f := randomCFG(rng, n)
		dt := BuildDomTree(f)
		// pick a random seed set
		var in []*Block
		for _, b := range f.Blocks {
			if rng.Intn(3) == 0 {
				in = append(in, b)
			}
		}
		if len(in) == 0 {
			in = append(in, f.Entry)
		}
		df := dt.IteratedFrontier(nil, in)
		set := map[*Block]bool{}
		for _, b := range df {
			set[b] = true
		}
		// closure property: DF(in ∪ df) ⊆ df
		for _, b := range append(append([]*Block{}, in...), df...) {
			for _, x := range dt.Frontier[b] {
				if !set[x] {
					t.Logf("seed=%d: DF+ not closed: B%d ∈ DF(B%d) missing", seed, x.ID, b.ID)
					return false
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRPOVisitsAllReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		f := randomCFG(rng, 2+rng.Intn(20))
		order := f.RPO()
		if len(order) != len(f.Blocks) {
			t.Fatalf("RPO %d blocks, func has %d (all are reachable by construction)", len(order), len(f.Blocks))
		}
		if order[0] != f.Entry {
			t.Fatal("RPO must start at the entry")
		}
	}
}

func TestFindLoopsSimple(t *testing.T) {
	// entry -> header <-> body; header -> exit
	prog := NewProgram()
	f := prog.NewFunc("f", VoidType)
	entry, header, body, exit := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = entry
	Connect(entry, header)
	Connect(header, body)
	Connect(header, exit)
	Connect(body, header)
	entry.Term = Term{Kind: TermJump}
	header.Term = Term{Kind: TermCond, Cond: &ConstInt{Val: 1}}
	body.Term = Term{Kind: TermJump}
	exit.Term = Term{Kind: TermRet}

	dt := BuildDomTree(f)
	loops, innermost := FindLoops(f, dt)
	if len(loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(loops))
	}
	l := loops[0]
	if l.Header != header {
		t.Errorf("loop header = B%d, want B%d", l.Header.ID, header.ID)
	}
	if !l.Blocks[body] || !l.Blocks[header] {
		t.Error("loop body must contain header and body")
	}
	if l.Blocks[exit] || l.Blocks[entry] {
		t.Error("loop must not contain entry/exit")
	}
	if innermost[body] != l {
		t.Error("innermost[body] wrong")
	}
	if l.Depth != 1 {
		t.Errorf("depth = %d, want 1", l.Depth)
	}
}

func TestFindLoopsNested(t *testing.T) {
	// entry -> h1 -> h2 <-> b2 ; h2 -> l1 -> h1 ; h1 -> exit
	prog := NewProgram()
	f := prog.NewFunc("f", VoidType)
	entry, h1, h2, b2, l1, exit := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = entry
	Connect(entry, h1)
	Connect(h1, h2)
	Connect(h1, exit)
	Connect(h2, b2)
	Connect(h2, l1)
	Connect(b2, h2)
	Connect(l1, h1)
	for _, b := range f.Blocks {
		switch len(b.Succs) {
		case 0:
			b.Term = Term{Kind: TermRet}
		case 1:
			b.Term = Term{Kind: TermJump}
		default:
			b.Term = Term{Kind: TermCond, Cond: &ConstInt{Val: 1}}
		}
	}
	dt := BuildDomTree(f)
	loops, innermost := FindLoops(f, dt)
	if len(loops) != 2 {
		t.Fatalf("want 2 loops, got %d", len(loops))
	}
	var inner, outer *Loop
	for _, l := range loops {
		if l.Header == h2 {
			inner = l
		}
		if l.Header == h1 {
			outer = l
		}
	}
	if inner == nil || outer == nil {
		t.Fatal("loops not identified by header")
	}
	if inner.Depth != 2 || outer.Depth != 1 {
		t.Errorf("depths inner=%d outer=%d, want 2/1", inner.Depth, outer.Depth)
	}
	if inner.Parent != outer {
		t.Error("inner loop's parent should be the outer loop")
	}
	if innermost[b2] != inner {
		t.Error("b2's innermost loop should be the inner loop")
	}
}

func TestSplitCriticalEdges(t *testing.T) {
	prog := NewProgram()
	f := prog.NewFunc("f", VoidType)
	a, b, c := f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = a
	// a conditionally branches to b and c; b also jumps to c → edge a→c
	// is critical (a has 2 succs, c has 2 preds)
	Connect(a, b)
	Connect(a, c)
	Connect(b, c)
	a.Term = Term{Kind: TermCond, Cond: &ConstInt{Val: 1}}
	b.Term = Term{Kind: TermJump}
	c.Term = Term{Kind: TermRet}

	f.SplitCriticalEdges()
	if err := Verify(f); err != nil {
		t.Fatalf("verify after split: %v", err)
	}
	for _, blk := range f.Blocks {
		if len(blk.Succs) >= 2 {
			for _, s := range blk.Succs {
				if len(s.Preds) >= 2 {
					t.Errorf("critical edge B%d->B%d survived", blk.ID, s.ID)
				}
			}
		}
	}
}
