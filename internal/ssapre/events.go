package ssapre

import "repro/internal/ir"

// This file holds the sparse representation the per-class phases run
// over. Rename, DownSafety and Finalize used to walk the whole dominator
// tree and every statement once per expression class; they now walk one
// sorted list of the class's events, so a class costs O(its events)
// rather than O(blocks + statements).
//
// An event sits at a (block, slot) position. Blocks are ordered by
// dominator-tree preorder and slots within a block reproduce the order
// the full walk met things in:
//
//	slot 0        variable φs of operand variables (block entry)
//	slot 1        the class's expression Φ
//	slot 2+3i     a real occurrence at statement i
//	slot 3+3i     a strong definition of an operand variable at statement i
//	slot 4+3i     a χ definition of an operand variable at statement i
//	slotBlockEnd  Φ operands of successors, at the end of the predecessor
//
// "Leaving a block" of the recursive walk becomes an interval test: an
// entry pushed at block b stays in scope for every later event whose
// preorder number is at most SubtreeEnd(b).

const (
	slotVarPhi   = 0
	slotPhi      = 1
	slotBlockEnd = 1<<31 - 1
)

func slotOcc(i int) int32    { return int32(2 + 3*i) }
func slotStrong(i int) int32 { return int32(3 + 3*i) }
func slotChi(i int) int32    { return int32(4 + 3*i) }

// symDef is one definition of a variable: a φ (stmt nil), a strong
// statement definition (chi nil), or a χ.
type symDef struct {
	pre, slot int32
	ver       int
	stmt      ir.Stmt
	chi       *ir.Chi
}

// defIndex lists, for every operand variable of one round's classes, its
// definitions in walk order. It is built once per function per round,
// after collectExprs and before any class's CodeMotion. CodeMotion never
// adds a definition of an existing variable: it only moves a rewritten
// occurrence's destination onto the copy inserted right after it, and
// nothing of another class sits between the two, so the recorded
// positions keep their order for every later class of the round.
type defIndex struct {
	of    map[*ir.Sym]int32
	lists [][]symDef
}

// build indexes the definitions of every operand variable of classes
// and points each class's defList at its variables' lists.
func (x *defIndex) build(dt *ir.DomTree, classes []*exprClass) {
	if x.of == nil {
		x.of = map[*ir.Sym]int32{}
	}
	clear(x.of)
	for i := range x.lists {
		x.lists[i] = x.lists[i][:0]
	}
	n := int32(0)
	for _, ec := range classes {
		for vi, v := range ec.vars {
			i, ok := x.of[v]
			if !ok {
				i = n
				x.of[v] = i
				n++
			}
			ec.defList[vi] = i
		}
	}
	for int(n) > len(x.lists) {
		x.lists = append(x.lists, nil)
	}
	if n == 0 {
		return
	}
	add := func(sym *ir.Sym, d symDef) {
		if i, ok := x.of[sym]; ok {
			x.lists[i] = append(x.lists[i], d)
		}
	}
	chis := func(pre int32, i int, st ir.Stmt, chis []*ir.Chi) {
		for _, chi := range chis {
			add(chi.Sym, symDef{pre: pre, slot: slotChi(i), ver: chi.NewVer, stmt: st, chi: chi})
		}
	}
	for bp, b := range dt.Preorder() {
		pre := int32(bp)
		for _, phi := range b.Phis {
			add(phi.Sym, symDef{pre: pre, slot: slotVarPhi, ver: phi.Ver})
		}
		for i, st := range b.Stmts {
			switch t := st.(type) {
			case *ir.Assign:
				add(t.Dst.Sym, symDef{pre: pre, slot: slotStrong(i), ver: t.Dst.Ver, stmt: st})
				chis(pre, i, st, t.Chis)
			case *ir.IStore:
				chis(pre, i, st, t.Chis)
			case *ir.Call:
				if t.Dst != nil {
					add(t.Dst.Sym, symDef{pre: pre, slot: slotStrong(i), ver: t.Dst.Ver, stmt: st})
				}
				chis(pre, i, st, t.Chis)
			}
		}
	}
}

// evKind classifies the events of one class's walk.
type evKind uint8

const (
	evDef  evKind = iota // definition of an operand variable (φ, strong or χ)
	evPhi                // the class's expression Φ
	evOcc                // real occurrence
	evOpnd               // Φ operand at the end of a predecessor
)

// event is one entry of a class's walk. end is the last preorder number
// of the event's dominator subtree: whatever the event pushes is popped
// at the first later event numbered past it.
type event struct {
	pre, slot, end int32
	kind           evKind
	vi             int8  // evDef: index into ec.vars
	ref            int32 // evDef: into the variable's definitions; evOcc: into ec.occs; evPhi, evOpnd: into w.phis
	j              int32 // evOpnd: operand index
}

func (w *web) defOf(e *event) *symDef     { return &w.scratch.varDefs[e.vi][e.ref] }
func (w *web) occOf(e *event) *occurrence { return w.ec.occs[e.ref] }
func (w *web) phiOf(e *event) *phiOcc     { return w.phis[e.ref] }
func (w *web) opndOf(e *event) *phiOpnd   { return &w.phis[e.ref].opnds[e.j] }
func before(p1, s1, p2, s2 int32) bool    { return p1 < p2 || p1 == p2 && s1 < s2 }

// buildEvents gathers the class's events in walk order and indexes them
// by block for DownSafety's forward exploration. Each variable's
// definitions and the occurrences are already in walk order, so they are
// merged; only the few Φ and Φ-operand events are sorted.
func (w *web) buildEvents() {
	sc := w.scratch
	dt := w.ssa.DT
	nv := len(w.ec.vars)
	sc.varDefs = sc.varDefs[:0]
	for vi := range w.ec.vars {
		sc.varDefs = append(sc.varDefs, w.defs.lists[w.ec.defList[vi]])
	}
	side := sc.sideEvents[:0]
	for pi, p := range w.phis {
		side = append(side, event{pre: p.pre, slot: slotPhi, kind: evPhi, ref: int32(pi)})
		for j, pred := range p.block.Preds {
			// the full walk filled an operand from the end of each
			// reachable predecessor, looked up by PredIndex (so only the
			// first of repeated edges)
			pp := dt.PreNum(pred)
			if pp < 0 || p.block.PredIndex(pred) != j {
				continue
			}
			side = append(side, event{pre: int32(pp), slot: slotBlockEnd, kind: evOpnd, ref: int32(pi), j: int32(j)})
		}
	}
	// insertion sort: the list is short, and ties are only between Φ
	// operands at one block end, whose order does not matter
	for i := 1; i < len(side); i++ {
		for j := i; j > 0 && before(side[j].pre, side[j].slot, side[j-1].pre, side[j-1].slot); j-- {
			side[j], side[j-1] = side[j-1], side[j]
		}
	}
	sc.sideEvents = side

	// k-way merge over the streams: one per operand variable, then the
	// occurrences, then the Φ side
	evs := sc.events[:0]
	var pos [maxVars + 2]int
	for {
		k := -1
		var kp, ks int32
		pick := func(s int, pre, slot int32) {
			if k < 0 || before(pre, slot, kp, ks) {
				k, kp, ks = s, pre, slot
			}
		}
		for vi := 0; vi < nv; vi++ {
			if i := pos[vi]; i < len(sc.varDefs[vi]) {
				d := &sc.varDefs[vi][i]
				pick(vi, d.pre, d.slot)
			}
		}
		if i := pos[nv]; i < len(w.ec.occs) {
			o := w.ec.occs[i]
			pick(nv, o.pre, slotOcc(o.index))
		}
		if i := pos[nv+1]; i < len(side) {
			pick(nv+1, side[i].pre, side[i].slot)
		}
		if k < 0 {
			break
		}
		i := pos[k]
		pos[k]++
		var e event
		switch {
		case k < nv:
			e = event{kind: evDef, vi: int8(k), ref: int32(i)}
			if ks == slotVarPhi {
				sc.block(kp).varPhi = true
			}
		case k == nv:
			e = event{kind: evOcc, ref: int32(i)}
		default:
			e = side[i]
		}
		e.pre, e.slot, e.end = kp, ks, int32(dt.SubtreeEnd(int(kp)))
		if len(evs) == 0 || evs[len(evs)-1].pre != kp {
			sc.block(kp).first = int32(len(evs))
		}
		evs = append(evs, e)
	}
	sc.events = evs
}

// blockEvents returns the class's events in the block numbered pre.
func (w *web) blockEvents(pre int32) []event {
	sc := w.scratch
	b := sc.peek(pre)
	if b == nil || b.first < 0 {
		return nil
	}
	i := int(b.first)
	j := i
	for j < len(sc.events) && sc.events[j].pre == pre {
		j++
	}
	return sc.events[i:j]
}

// blockInfo is one block's per-web scratch entry. It is live only while
// gen equals the scratch generation, which newWeb bumps, so nothing is
// cleared between webs; memo likewise is live only while memoGen equals
// the current DownSafety exploration's stamp.
type blockInfo struct {
	gen     uint32
	first   int32   // index of the block's first event (-1: none)
	phi     *phiOcc // the class's Φ at the block
	varPhi  bool    // the block has a φ of an operand variable
	inDF    bool    // the block is on the Φ-home list
	memo    uint8   // DownSafety: 0 unknown or in progress, 1 safe, 2 unsafe
	memoGen uint32
}

// ensureBlocks sizes the per-block table for n blocks and starts a fresh
// generation for the next web.
func (sc *webScratch) ensureBlocks(n int) {
	if len(sc.blk) < n {
		sc.blk = make([]blockInfo, n)
	}
	sc.gen++
}

// block returns the block's entry for this web, resetting a stale one.
func (sc *webScratch) block(pre int32) *blockInfo {
	b := &sc.blk[pre]
	if b.gen != sc.gen {
		*b = blockInfo{gen: sc.gen, first: -1, memo: b.memo, memoGen: b.memoGen}
	}
	return b
}

// peek returns the block's entry if this web has touched it.
func (sc *webScratch) peek(pre int32) *blockInfo {
	if b := &sc.blk[pre]; b.gen == sc.gen {
		return b
	}
	return nil
}
