package ssapre

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// defNode is a node of an expression's availability web: a real
// occurrence or an expression Φ.
type defNode struct {
	real   *occurrence
	phi    *phiOcc
	class  int
	tVer   int  // temp version this node provides (CodeMotion)
	needed bool // provides a consumed value (CodeMotion)
}

// phiOcc is an expression Φ (the capital-Φ of the paper, distinct from
// variable φs).
type phiOcc struct {
	block *ir.Block
	pre   int32 // block's dominator-tree preorder number
	class int
	vers  []int     // versions of expression variables (parallel to ec.vars) just after b's φs
	opnds []phiOpnd // parallel to block.Preds

	downSafe    bool
	specDS      bool // non-down-safe but control speculation deems insertion profitable
	canBeAvail  bool
	later       bool
	willBeAvail bool

	node *defNode
}

// phiOpnd describes the expression value arriving along one incoming edge.
type phiOpnd struct {
	def        *defNode // nil = ⊥ (not available)
	hasRealUse bool     // latest occurrence of the version on this path is real
	spec       bool     // availability crosses speculative weak updates
	vers       []int    // variable versions (parallel to ec.vars) at the end of the predecessor
	insert     bool     // Finalize: insert computation on this edge
	insCheck   bool     // insertion is a check load (spec crossing)
	tVer       int      // temp version feeding the Φ from this edge
}

// web is the per-class state threaded through the phases.
type web struct {
	ssa       *core.SSA
	ec        *exprClass
	opts      Options
	defs      *defIndex // the round's operand-variable definitions
	phis      []*phiOcc
	nextClass int
	preTemps  map[*ir.Sym]bool
	// checkedTemps are PRE temps redefined by check loads; their versions
	// are opaque to value analysis (see buildResolver)
	checkedTemps map[*ir.Sym]bool
	copies       map[core.SymVer]ir.Operand // pure-copy resolver for value matching

	// sites allocates reference-site ids for inserted loads. Function
	// passes run concurrently, so ids are function-local placeholders
	// renumbered by Run once every function has finished.
	sites *siteAlloc

	temp  *ir.Sym // materialization temp (created on demand)
	stats Stats

	// scratch is shared by every web of one function (webs are built and
	// consumed sequentially by one goroutine; passes parallelize per
	// function), amortizing the many small allocations: version
	// snapshots, defNodes, Φ operand arrays, the event list and the
	// per-block tables.
	scratch *webScratch
}

// varUndo is one entry of the rename walk's undo log: the displaced
// version of variable vi, restored once the walk leaves the dominator
// subtree ending at end.
type varUndo struct {
	end     int32
	vi, ver int
}

// webScratch holds buffers reused across the webs of one function.
type webScratch struct {
	// per round: collectExprs' classes and occurrences, and the
	// definition index
	classes map[exprKey]*exprClass
	order   []*exprClass
	exprs   pool[exprClass]
	occs    pool[occurrence]
	defs    defIndex

	// per web
	w          web // the current web (webs are built and consumed one at a time)
	ints       pool[int]
	nodes      pool[defNode]
	opnds      pool[phiOpnd]
	phiOccs    pool[phiOcc]
	phis       []*phiOcc        // backing array of the current web's Φ list
	frontier   []*ir.Block      // DF+ of the occurrence blocks
	visited    map[*ir.Phi]bool // variable φs Φ-insertion has followed
	occBlocks  []*ir.Block
	dfList     []int32 // Φ-home blocks (preorder numbers), in discovery order
	estack     []renEntry
	undo       []varUndo
	events     []event
	sideEvents []event    // the Φ and Φ-operand events before the merge
	varDefs    [][]symDef // per operand variable: its definitions
	availDef   []*defNode
	availUndo  []availUndo

	// per-block entries indexed by preorder number
	gen       uint32
	blk       []blockInfo
	memoStamp uint32 // the current DownSafety exploration
}

// newWeb starts the web of class ec in scratch, recycling everything the
// previous web of scratch allocated: nothing a web allocates is
// referenced once its CodeMotion is done. The round's definition index
// must already be built in scratch.defs.
func newWeb(ssa *core.SSA, ec *exprClass, opts Options, copies map[core.SymVer]ir.Operand, scratch *webScratch) *web {
	sc := scratch
	sc.ensureBlocks(len(ssa.DT.Preorder()))
	sc.ints.reset()
	sc.nodes.reset()
	sc.opnds.reset()
	sc.phiOccs.reset()
	sc.w = web{ssa: ssa, ec: ec, opts: opts, defs: &sc.defs, copies: copies, scratch: sc}
	return &sc.w
}

// vi returns the index of sym in the class's operand-variable list, or -1.
// The list is tiny (≤3 in practice), so a linear scan beats any map.
func (w *web) vi(sym *ir.Sym) int {
	for i, v := range w.ec.vars {
		if v == sym {
			return i
		}
	}
	return -1
}

// verAt reads a version snapshot (parallel to ec.vars); symbols outside
// the variable set report version 0, matching the old map semantics.
func (w *web) verAt(vers []int, sym *ir.Sym) int {
	if i := w.vi(sym); i >= 0 {
		return vers[i]
	}
	return 0
}

// allocInts hands out a zeroed snapshot-sized slice.
func (w *web) allocInts(n int) []int {
	if n == 0 {
		return nil
	}
	return w.scratch.ints.take(n)
}

// newNode allocates a defNode.
func (w *web) newNode(n defNode) *defNode {
	p := &w.scratch.nodes.take(1)[0]
	*p = n
	return p
}

// newPhi allocates an expression Φ.
func (w *web) newPhi(p phiOcc) *phiOcc {
	q := &w.scratch.phiOccs.take(1)[0]
	*q = p
	return q
}

// pool hands out zeroed runs of T from chunks that reset recycles
// wholesale, so a scratch allocates its chunks once per function.
type pool[T any] struct {
	chunks [][]T
	ci, n  int // current chunk, and the next free index in it
}

func (p *pool[T]) take(k int) []T {
	for p.ci < len(p.chunks) && p.n+k > len(p.chunks[p.ci]) {
		p.ci++
		p.n = 0
	}
	if p.ci == len(p.chunks) {
		size := 16 // chunks double, so small functions stay small
		if p.ci > 0 {
			size = 2 * len(p.chunks[p.ci-1])
		}
		p.chunks = append(p.chunks, make([]T, max(size, k)))
	}
	s := p.chunks[p.ci][p.n : p.n+k : p.n+k]
	p.n += k
	clear(s)
	return s
}

// reset recycles every chunk.
func (p *pool[T]) reset() { p.ci, p.n = 0, 0 }

// occStillValid re-checks that the collected statement still computes this
// expression (an earlier class's CodeMotion may have rewritten it).
func (w *web) occStillValid(o *occurrence) bool {
	a := o.stmt
	if a.RK != w.ec.key.rk {
		return false
	}
	switch w.ec.kind {
	case exprArith:
		if a.Op != w.ec.key.op {
			return false
		}
	case exprDirectLoad:
		r, ok := a.A.(*ir.Ref)
		if !ok || !r.Sym.InMemory() {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Step 1: Φ-Insertion (paper Appendix A, with the weak-update-skipping
// walk that makes expressions speculatively anticipated).
// ---------------------------------------------------------------------

func (w *web) phiInsertion() {
	// Φ-home set, tracked with per-block marks plus a discovery-order
	// list (the phases are insensitive to the order; class numbering
	// happens in rename's dominator walk).
	sc := w.scratch
	dt := w.ssa.DT
	sc.dfList = sc.dfList[:0]
	mark := func(b *ir.Block) {
		pre := int32(dt.PreNum(b))
		if bi := sc.block(pre); !bi.inDF {
			bi.inDF = true
			sc.dfList = append(sc.dfList, pre)
		}
	}
	occBlocks := sc.occBlocks[:0]
	for _, o := range w.ec.occs {
		occBlocks = append(occBlocks, o.block)
	}
	sc.frontier = dt.IteratedFrontier(sc.frontier[:0], occBlocks)
	sc.occBlocks = occBlocks[:0]
	for _, b := range sc.frontier {
		mark(b)
	}

	// variable-φ-driven insertion: from each occurrence operand, skip
	// speculative weak updates; if the def is a variable φ, its block
	// (and those of φs feeding it, transitively) get an expression Φ.
	if sc.visited == nil {
		sc.visited = map[*ir.Phi]bool{}
	} else if len(sc.visited) > 0 {
		clear(sc.visited)
	}
	visited := sc.visited
	var addPhiRec func(phi *ir.Phi, blockOf *ir.Block)
	addPhiRec = func(phi *ir.Phi, blockOf *ir.Block) {
		if visited[phi] {
			return
		}
		visited[phi] = true
		mark(blockOf)
		for _, arg := range phi.Args {
			home, _ := w.ssa.SpecHome(phi.Sym, arg.Ver, &w.ec.ctx)
			if d, ok := w.ssa.Def[core.SymVer{Sym: phi.Sym, Ver: home}]; ok && d.Kind == core.DefPhi {
				addPhiRec(d.Phi, d.Block)
			}
		}
	}
	for _, o := range w.ec.occs {
		for _, v := range w.ec.vars {
			ver := w.ec.verOf(o, v)
			home, _ := w.ssa.SpecHome(v, ver, &w.ec.ctx)
			if d, ok := w.ssa.Def[core.SymVer{Sym: v, Ver: home}]; ok && d.Kind == core.DefPhi {
				addPhiRec(d.Phi, d.Block)
			}
		}
	}

	w.phis = sc.phis[:0]
	for _, pre := range sc.dfList {
		b := dt.Preorder()[pre]
		if len(b.Preds) < 2 {
			continue // Φ only makes sense at merge points
		}
		p := w.newPhi(phiOcc{block: b, pre: pre, class: -1, downSafe: true, canBeAvail: true})
		p.opnds = sc.opnds.take(len(b.Preds))
		w.phis = append(w.phis, p)
		sc.block(p.pre).phi = p
		w.stats.PhisPlaced++
	}
	sc.phis = w.phis
}

// ---------------------------------------------------------------------
// Step 2: Rename — assign h-versions (classes) to occurrences and Φs,
// using the speculative walk to identify speculative redundancies
// (§4.3 of the paper).
// ---------------------------------------------------------------------

type renEntry struct {
	end int32 // last preorder number of the pushing block's subtree
	occ *occurrence
	phi *phiOcc
}

func (e renEntry) classOf() int {
	if e.occ != nil {
		return e.occ.class
	}
	return e.phi.class
}

// rename walks the class's events in dominator preorder (see events.go),
// keeping the current version of each operand variable and a stack of
// the occurrences and Φs that are candidates for reuse.
func (w *web) rename() {
	w.buildEvents()
	nv := len(w.ec.vars)
	varTops := w.allocInts(nv) // zeroed
	estack := w.scratch.estack[:0]

	// undo log: each definition records the displaced version, restored
	// when the walk passes the end of the defining block's subtree
	undo := w.scratch.undo[:0]

	// scratch snapshots reused across statements (never escape a single
	// matchVers call)
	curBuf := w.allocInts(nv)
	tgtBuf := w.allocInts(nv)

	// snap returns a durable copy of the current variable versions.
	snap := func() []int {
		s := w.allocInts(nv)
		copy(s, varTops)
		return s
	}

	occVers := func(o *occurrence, buf []int) []int {
		for i, v := range w.ec.vars {
			buf[i] = w.ec.verOf(o, v)
		}
		return buf
	}

	topVers := func(top renEntry) []int {
		if top.occ != nil {
			return occVers(top.occ, tgtBuf)
		}
		return top.phi.vers
	}

	// matchVers checks whether current versions `cur` denote the same
	// values as target versions `tgt` (both parallel to ec.vars):
	// versions are resolved through pure copy chains (SSA value identity)
	// and, failing that, walked through speculative weak updates.
	matchVers := func(cur, tgt []int) (match, spec bool) {
		anySpec := false
		for i, v := range w.ec.vars {
			cv, tv := cur[i], tgt[i]
			if cv == tv {
				continue
			}
			ca := resolveSymVer(v, cv, w.copies)
			cb := resolveSymVer(v, tv, w.copies)
			caSym, caVer, caRef := v, cv, true
			if ca != nil {
				if r, ok := ca.(*ir.Ref); ok {
					caSym, caVer = r.Sym, r.Ver
				} else {
					caRef = false
				}
			}
			cbSym, cbVer, cbRef := v, tv, true
			if cb != nil {
				if r, ok := cb.(*ir.Ref); ok {
					cbSym, cbVer = r.Sym, r.Ver
				} else {
					cbRef = false
				}
			}
			if caRef && cbRef {
				if caSym == cbSym && caVer == cbVer {
					continue
				}
				if caSym == cbSym {
					reaches, sp := w.ssa.SpecReaches(caSym, caVer, cbVer, &w.ec.ctx)
					if reaches {
						if sp {
							anySpec = true
						}
						continue
					}
				}
			} else if !caRef && !cbRef && ir.SameOperand(ca, cb) {
				continue
			}
			// fall back to the raw chain (vv and memory symbols are
			// never copied, so this is the common case for them)
			reaches, sp := w.ssa.SpecReaches(v, cv, tv, &w.ec.ctx)
			if !reaches {
				return false, false
			}
			if sp {
				anySpec = true
			}
		}
		return true, anySpec
	}

	for i := range w.scratch.events {
		e := &w.scratch.events[i]
		// leave every dominator subtree that does not contain e
		for len(estack) > 0 && estack[len(estack)-1].end < e.pre {
			estack = estack[:len(estack)-1]
		}
		for len(undo) > 0 && undo[len(undo)-1].end < e.pre {
			u := undo[len(undo)-1]
			varTops[u.vi] = u.ver
			undo = undo[:len(undo)-1]
		}

		switch e.kind {
		case evDef:
			vi := int(e.vi)
			undo = append(undo, varUndo{e.end, vi, varTops[vi]})
			varTops[vi] = w.defOf(e).ver

		case evPhi:
			p := w.phiOf(e)
			p.class = w.nextClass
			w.nextClass++
			p.vers = snap()
			p.node = w.newNode(defNode{phi: p, class: p.class})
			estack = append(estack, renEntry{end: e.end, phi: p})

		case evOcc:
			o := w.occOf(e)
			if !w.occStillValid(o) {
				continue
			}
			cur := occVers(o, curBuf)
			assigned := false
			if len(estack) > 0 {
				top := estack[len(estack)-1]
				tgt := topVers(top)
				if match, spec := matchVers(cur, tgt); match {
					o.class = top.classOf()
					o.spec = spec
					if top.occ != nil {
						o.defOcc = w.newNode(defNode{real: top.occ, class: o.class})
					} else {
						o.defOcc = top.phi.node
					}
					assigned = true
				}
			}
			if !assigned {
				o.class = w.nextClass
				w.nextClass++
				o.defOcc = nil
				o.spec = false
			}
			estack = append(estack, renEntry{end: e.end, occ: o})

		case evOpnd:
			// Φ-operand pseudo-occurrence at the end of a predecessor
			opnd := w.opndOf(e)
			opnd.vers = snap()
			if len(estack) == 0 {
				opnd.def = nil
				continue
			}
			top := estack[len(estack)-1]
			tgt := topVers(top)
			match, spec := matchVers(opnd.vers, tgt)
			if !match {
				opnd.def = nil
				continue
			}
			if top.occ != nil {
				opnd.def = w.newNode(defNode{real: top.occ, class: top.occ.class})
				opnd.hasRealUse = true
			} else {
				opnd.def = top.phi.node
				opnd.hasRealUse = false
			}
			opnd.spec = spec
		}
	}
	w.scratch.estack = estack[:0]
	w.scratch.undo = undo[:0]
}

// ---------------------------------------------------------------------
// Step 3: DownSafety — a Φ is down-safe when the expression's value is
// used on every path to exit before being killed. The kill test honours
// data speculation (weak updates the context may skip do not kill).
// Control speculation then re-admits profitable non-down-safe Φs.
// ---------------------------------------------------------------------

// kills reports whether a definition event kills the expression's
// value: a strong definition of an operand variable, a flagged χ, or a
// weak χ the walk context refuses to skip. Variable φs are handled on
// block entry, not here.
func (w *web) kills(d *symDef) bool {
	if d.chi == nil {
		return true
	}
	return d.chi.Spec || w.ec.ctx.BlocksSkip(d.stmt)
}

func (w *web) downSafety() {
	// Initial pass: a Φ is down-safe iff on every path forward its class
	// value reaches a real occurrence of the same class or flows into a
	// Φ-operand, before any kill or exit.
	for _, p := range w.phis {
		p.downSafe = w.usedOnAllPaths(p)
	}
	// Propagation: a Φ feeding only a non-down-safe Φ (with no real use
	// on the edge) is itself not down-safe.
	for changed := true; changed; {
		changed = false
		for _, p := range w.phis {
			if p.downSafe {
				continue
			}
			for oi := range p.opnds {
				opnd := &p.opnds[oi]
				if opnd.def != nil && opnd.def.phi != nil && !opnd.hasRealUse && opnd.def.phi.downSafe {
					opnd.def.phi.downSafe = false
					changed = true
				}
			}
		}
	}
	// Control speculation: a non-down-safe Φ may still host insertions
	// when the edges needing insertion are colder than the uses saved
	// (Lo et al. PLDI'98). Trapping arithmetic is never speculated.
	if !w.opts.ControlSpec || w.trapping() {
		return
	}
	for _, p := range w.phis {
		if p.downSafe {
			continue
		}
		var insFreq float64
		for i := range p.opnds {
			opnd := &p.opnds[i]
			if opnd.def == nil {
				if i < len(p.block.Preds) {
					pred := p.block.Preds[i]
					pi := pred.SuccIndex(p.block)
					if pi >= 0 && pi < len(pred.EdgeFreq) {
						insFreq += pred.EdgeFreq[pi]
					} else {
						insFreq += pred.Freq
					}
				}
			}
		}
		var useFreq float64
		for _, o := range w.ec.occs {
			if o.class == p.class {
				useFreq += o.block.Freq
			}
		}
		if useFreq > insFreq {
			p.specDS = true
		}
	}
}

// trapping reports whether speculatively executing the expression could
// fault in a way the VM cannot defer (integer division).
func (w *web) trapping() bool {
	return w.ec.kind == exprArith && (w.ec.key.op == ir.OpDiv || w.ec.key.op == ir.OpMod)
}

// usedOnAllPaths checks the initial down-safety of Φ p by forward
// exploration from its block, visiting only the class's events in each
// block it enters.
func (w *web) usedOnAllPaths(p *phiOcc) bool {
	sc := w.scratch
	dt := w.ssa.DT
	sc.memoStamp++
	stamp := sc.memoStamp
	// memo per block: 0 unknown/in-progress, 1 safe, 2 unsafe
	memo := func(pre int32) uint8 {
		if b := &sc.blk[pre]; b.memoGen == stamp {
			return b.memo
		}
		return 0
	}
	setMemo := func(pre int32, v uint8) {
		b := &sc.blk[pre]
		b.memoGen, b.memo = stamp, v
	}
	var fromBlock func(b *ir.Block, pre int32) bool
	fromBlock = func(b *ir.Block, pre int32) bool {
		evs := w.blockEvents(pre)
		for i := range evs {
			e := &evs[i]
			switch {
			case e.kind == evOcc:
				if w.occOf(e).class == p.class {
					return true
				}
			case e.kind == evDef && e.slot != slotVarPhi:
				if w.kills(w.defOf(e)) {
					return false
				}
			}
		}
		if b.Term.Kind == ir.TermRet {
			return false
		}
		for _, s := range b.Succs {
			sp := int32(dt.PreNum(s))
			bi := sc.peek(sp)
			if bi != nil && bi.phi != nil {
				opnd := &bi.phi.opnds[s.PredIndex(b)]
				if opnd.def != nil && opnd.def.class == p.class {
					continue // value flows into the Φ; propagation handles it
				}
				return false
			}
			// entering s: variable φs there redefine operands → kill
			if bi != nil && bi.varPhi {
				return false
			}
			switch memo(sp) {
			case 1:
				continue
			case 2:
				return false
			default:
				setMemo(sp, 1) // optimistic for cycles: a pure cycle never exits
				if !fromBlock(s, sp) {
					setMemo(sp, 2)
					return false
				}
			}
		}
		return true
	}
	return fromBlock(p.block, p.pre)
}

// ---------------------------------------------------------------------
// Step 4: WillBeAvailable (standard SSAPRE, with specDS standing in for
// down-safety under control speculation).
// ---------------------------------------------------------------------

func (w *web) willBeAvail() {
	safe := func(p *phiOcc) bool { return p.downSafe || p.specDS }
	for _, p := range w.phis {
		p.canBeAvail = true
	}
	// seed: non-safe Φ with a ⊥ operand cannot be available
	for _, p := range w.phis {
		if !safe(p) {
			for oi := range p.opnds {
				opnd := &p.opnds[oi]
				if opnd.def == nil {
					p.canBeAvail = false
					break
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range w.phis {
			if !p.canBeAvail {
				continue
			}
			if safe(p) {
				continue
			}
			for oi := range p.opnds {
				opnd := &p.opnds[oi]
				if opnd.def != nil && opnd.def.phi != nil && !opnd.def.phi.canBeAvail && !opnd.hasRealUse {
					p.canBeAvail = false
					changed = true
					break
				}
			}
		}
	}
	// later: the insertion can be postponed (no real availability feeds it)
	for _, p := range w.phis {
		p.later = p.canBeAvail
	}
	for changed := true; changed; {
		changed = false
		for _, p := range w.phis {
			if !p.later {
				continue
			}
			for oi := range p.opnds {
				opnd := &p.opnds[oi]
				if opnd.def != nil && (opnd.hasRealUse || (opnd.def.phi != nil && !opnd.def.phi.later)) {
					p.later = false
					changed = true
					break
				}
			}
		}
	}
	for _, p := range w.phis {
		p.willBeAvail = p.canBeAvail && !p.later
	}
}
