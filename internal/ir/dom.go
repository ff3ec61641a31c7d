package ir

// DomTree holds the dominator tree and dominance frontiers of a function's
// CFG, computed with the Cooper-Harvey-Kennedy iterative algorithm.
type DomTree struct {
	fn *Func
	// Idom maps a block to its immediate dominator (nil for entry).
	Idom map[*Block]*Block
	// Children maps a block to the blocks it immediately dominates.
	Children map[*Block][]*Block
	// Frontier maps a block to its dominance frontier.
	Frontier map[*Block][]*Block
	// rpoNum is the reverse-post-order number of each block.
	rpoNum map[*Block]int
	order  []*Block
	// preNum is each reachable block's dominator-tree preorder number
	// (children visited in Children order); preEnd[i] is the largest
	// preorder number in the subtree of the block numbered i, so block j
	// lies in that subtree iff i <= j <= preEnd[i].
	preNum   map[*Block]int
	preorder []*Block
	preEnd   []int

	// generation-marked scratch for IteratedFrontier: phi insertion calls
	// it once per variable, so per-call map allocation dominates SSA
	// construction without this. (DomTree is per-function and the compile
	// pipeline never shares one across goroutines.)
	ifGen  int
	ifIn   []int
	ifOut  []int
	ifWork []int32
	dfNum  [][]int32 // Frontier by RPO number
}

// BuildDomTree computes dominators and dominance frontiers for f.
func BuildDomTree(f *Func) *DomTree {
	order := f.RPO()
	num := make(map[*Block]int, len(order))
	for i, b := range order {
		num[b] = i
	}
	idom := make(map[*Block]*Block, len(order))
	idom[f.Entry] = f.Entry

	intersect := func(a, b *Block) *Block {
		for a != b {
			for num[a] > num[b] {
				a = idom[a]
			}
			for num[b] > num[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == f.Entry {
				continue
			}
			var newIdom *Block
			for _, p := range b.Preds {
				if idom[p] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	idom[f.Entry] = nil

	children := make(map[*Block][]*Block)
	for _, b := range order {
		if d := idom[b]; d != nil {
			children[d] = append(children[d], b)
		}
	}

	frontier := make(map[*Block][]*Block)
	for _, b := range order {
		// b ∈ DF(a) iff a dominates a predecessor of b but does not
		// strictly dominate b. Walking from every predecessor also covers
		// back edges into the entry (idom nil), where the walk terminates
		// at the tree root.
		for _, p := range b.Preds {
			if _, ok := num[p]; !ok {
				continue
			}
			runner := p
			for runner != nil && runner != idom[b] {
				frontier[runner] = appendUnique(frontier[runner], b)
				runner = idom[runner]
			}
		}
	}

	d := &DomTree{fn: f, Idom: idom, Children: children, Frontier: frontier, rpoNum: num, order: order}
	total := 0
	for _, fs := range frontier {
		total += len(fs)
	}
	flat := make([]int32, 0, total)
	d.dfNum = make([][]int32, len(order))
	for i, b := range order {
		start := len(flat)
		for _, fb := range frontier[b] {
			flat = append(flat, int32(num[fb]))
		}
		d.dfNum[i] = flat[start:len(flat):len(flat)]
	}
	d.numberPreorder()
	return d
}

// numberPreorder assigns preorder numbers and subtree ends.
func (d *DomTree) numberPreorder() {
	d.preNum = make(map[*Block]int, len(d.order))
	d.preorder = make([]*Block, 0, len(d.order))
	d.preEnd = make([]int, 0, len(d.order))
	var visit func(b *Block)
	visit = func(b *Block) {
		i := len(d.preorder)
		d.preNum[b] = i
		d.preorder = append(d.preorder, b)
		d.preEnd = append(d.preEnd, i)
		for _, c := range d.Children[b] {
			visit(c)
		}
		d.preEnd[i] = len(d.preorder) - 1
	}
	if d.fn.Entry != nil {
		visit(d.fn.Entry)
	}
}

func appendUnique(s []*Block, b *Block) []*Block {
	for _, x := range s {
		if x == b {
			return s
		}
	}
	return append(s, b)
}

// Dominates reports whether a dominates b (reflexively). An unreachable
// block dominates only itself and is dominated only by itself.
func (d *DomTree) Dominates(a, b *Block) bool {
	i, okA := d.preNum[a]
	j, okB := d.preNum[b]
	if !okA || !okB {
		return a == b
	}
	return i <= j && j <= d.preEnd[i]
}

// Order returns the blocks in reverse post-order.
func (d *DomTree) Order() []*Block { return d.order }

// Preorder returns the reachable blocks in dominator-tree preorder,
// children in Children order; a block's index is its PreNum.
func (d *DomTree) Preorder() []*Block { return d.preorder }

// PreNum returns b's dominator-tree preorder number, or -1 when b is
// unreachable.
func (d *DomTree) PreNum(b *Block) int {
	if i, ok := d.preNum[b]; ok {
		return i
	}
	return -1
}

// SubtreeEnd returns the largest preorder number in the dominator subtree
// of the block numbered i: the blocks i dominates are numbered
// i..SubtreeEnd(i).
func (d *DomTree) SubtreeEnd(i int) int { return d.preEnd[i] }

// IteratedFrontier appends to dst DF+ of a set of blocks: the smallest
// set S containing DF(in) and closed under DF. Phi placement inserts at
// DF+ of the definition sites. Callers that keep the result across calls
// pass a nil dst; a reused buffer saves the allocation.
func (d *DomTree) IteratedFrontier(dst, in []*Block) []*Block {
	if n := len(d.order); len(d.ifIn) < n {
		d.ifIn = make([]int, n)
		d.ifOut = make([]int, n)
	}
	d.ifGen++
	gen := d.ifGen
	work := d.ifWork[:0]
	for _, b := range in {
		// an unreachable def site has an empty frontier and can never
		// reappear as a frontier member, so it is simply skipped
		if i, ok := d.rpoNum[b]; ok && d.ifIn[i] != gen {
			d.ifIn[i] = gen
			work = append(work, int32(i))
		}
	}
	res := dst
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for _, f := range d.dfNum[i] {
			if d.ifOut[f] != gen {
				d.ifOut[f] = gen
				res = append(res, d.order[f])
				if d.ifIn[f] != gen {
					d.ifIn[f] = gen
					work = append(work, f)
				}
			}
		}
	}
	d.ifWork = work[:0]
	return res
}

// Loop describes a natural loop discovered from back edges.
type Loop struct {
	Header *Block
	Blocks map[*Block]bool
	Depth  int
	Parent *Loop
}

// FindLoops identifies natural loops (back edge t->h where h dominates t)
// and computes nesting depths. Returns loops and a map from block to its
// innermost loop.
func FindLoops(f *Func, dt *DomTree) ([]*Loop, map[*Block]*Loop) {
	loopsByHeader := map[*Block]*Loop{}
	var loops []*Loop
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if dt.Dominates(s, b) {
				// back edge b -> s
				l := loopsByHeader[s]
				if l == nil {
					l = &Loop{Header: s, Blocks: map[*Block]bool{s: true}}
					loopsByHeader[s] = l
					loops = append(loops, l)
				}
				// walk backwards from b collecting the loop body
				var stack []*Block
				if !l.Blocks[b] {
					l.Blocks[b] = true
					stack = append(stack, b)
				}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, p := range x.Preds {
						if !l.Blocks[p] {
							l.Blocks[p] = true
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	// Nesting: loop A is inside loop B if A.Header ∈ B.Blocks and A != B.
	innermost := map[*Block]*Loop{}
	for _, l := range loops {
		for _, m := range loops {
			if l != m && m.Blocks[l.Header] && len(m.Blocks) > len(l.Blocks) {
				if l.Parent == nil || len(m.Blocks) < len(l.Parent.Blocks) {
					l.Parent = m
				}
			}
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	for _, l := range loops {
		for b := range l.Blocks {
			if cur := innermost[b]; cur == nil || len(l.Blocks) < len(cur.Blocks) {
				innermost[b] = l
			}
		}
	}
	return loops, innermost
}
