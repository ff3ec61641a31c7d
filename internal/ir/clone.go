package ir

// Clone returns a deep copy of a program that shares no mutable state
// with the original: every Func, Block, Sym, Stmt, Phi, Mu, Chi, Ref and
// constant operand is a fresh object, so passes may mutate one program
// (SSA renaming bumps Ref.Ver and Sym.NVers in place, annotation attaches
// chi/mu lists, code motion rewrites statements) without the other ever
// observing a change. Types are shared: they are interned by the front
// end and treated as immutable everywhere.
//
// Clone is what makes the frontend compilation cache sound — the cache
// keeps one pristine lowered program per source hash and hands every
// caller a detached copy — and it preserves object *identity* structure:
// if the original shares one *Ref between two statements, the clone
// shares one cloned *Ref between the corresponding statements, so
// in-place version rewriting behaves identically in both programs.
//
// Functions whose objects live in a slab arena (everything built through
// the Func factory methods — see arena.go) are cloned by copying each
// slab's chunks wholesale and then remapping pointer fields by slab
// index; identical indices in the copied slabs give identity
// preservation for free. Objects built as plain literals (tests,
// program-shared virtual variables, globals) take the original
// map-based path; the two interoperate freely within one function.
func Clone(p *Program) *Program {
	c := &cloner{
		syms:   map[*Sym]*Sym{},
		blocks: map[*Block]*Block{},
		refs:   map[*Ref]*Ref{},
		ops:    map[Operand]Operand{},
		mus:    map[*Mu]*Mu{},
		chis:   map[*Chi]*Chi{},
	}
	np := &Program{
		FuncMap:    make(map[string]*Func, len(p.FuncMap)),
		GlobSize:   p.GlobSize,
		GlobalInit: make(map[int]uint64, len(p.GlobalInit)),
		nextGlobal: p.nextGlobal,
		nextSite:   p.nextSite,
	}
	for k, v := range p.GlobalInit {
		np.GlobalInit[k] = v
	}
	for _, g := range p.Globals {
		np.Globals = append(np.Globals, c.sym(g))
	}
	for _, f := range p.Funcs {
		nf := c.fn(f, np)
		np.Funcs = append(np.Funcs, nf)
		np.FuncMap[nf.Name] = nf
	}
	return np
}

// listArena hands out exact-capacity subslices of a shared backing
// array, so cloning the many small Mus/Chis/Args/Preds/... slices costs
// one allocation per refill instead of one per slice. Exact capacity
// means a later append on a cloned slice reallocates instead of
// scribbling over its neighbour.
type listArena[T any] struct{ buf []T }

func (a *listArena[T]) make(n int) []T {
	if n == 0 {
		return []T{}
	}
	if len(a.buf) < n {
		size := 1024
		if n > size {
			size = n
		}
		a.buf = make([]T, size)
	}
	s := a.buf[:n:n]
	a.buf = a.buf[n:]
	return s
}

type cloner struct {
	syms   map[*Sym]*Sym
	blocks map[*Block]*Block
	refs   map[*Ref]*Ref
	ops    map[Operand]Operand
	mus    map[*Mu]*Mu
	chis   map[*Chi]*Chi

	// oldA/newA are set while cloning an arena-backed function: objects
	// found (by verified slab index) in oldA translate to the same index
	// in newA; everything else falls back to the maps above.
	oldA, newA *arena

	muBuf   listArena[*Mu]
	chiBuf  listArena[*Chi]
	refBuf  listArena[*Ref]
	opBuf   listArena[Operand]
	blkBuf  listArena[*Block]
	stmtBuf listArena[Stmt]
	phiBuf  listArena[*Phi]
	symBuf  listArena[*Sym]
}

func (c *cloner) sym(s *Sym) *Sym {
	if s == nil {
		return nil
	}
	if c.oldA != nil && s.aidx > 0 {
		if i := s.aidx - 1; i < c.oldA.syms.n && c.oldA.syms.at(i) == s {
			return c.newA.syms.at(i)
		}
	}
	if n, ok := c.syms[s]; ok {
		return n
	}
	n := &Sym{}
	*n = *s // Type is shared by design
	n.aidx = 0
	c.syms[s] = n
	return n
}

func (c *cloner) ref(r *Ref) *Ref {
	if r == nil {
		return nil
	}
	if c.oldA != nil && r.aidx > 0 {
		if i := r.aidx - 1; i < c.oldA.refs.n && c.oldA.refs.at(i) == r {
			return c.newA.refs.at(i)
		}
	}
	if n, ok := c.refs[r]; ok {
		return n
	}
	n := &Ref{Sym: c.sym(r.Sym), Ver: r.Ver}
	c.refs[r] = n
	return n
}

func (c *cloner) operand(op Operand) Operand {
	if op == nil {
		return nil
	}
	switch o := op.(type) {
	case *Ref:
		return c.ref(o)
	case *AddrOf:
		if c.oldA != nil && o.aidx > 0 {
			if i := o.aidx - 1; i < c.oldA.addrs.n && c.oldA.addrs.at(i) == o {
				return c.newA.addrs.at(i)
			}
		}
		if n, ok := c.ops[op]; ok {
			return n
		}
		n := &AddrOf{Sym: c.sym(o.Sym)}
		c.ops[op] = n
		return n
	case *ConstInt:
		if n, ok := c.ops[op]; ok {
			return n
		}
		n := &ConstInt{Val: o.Val}
		c.ops[op] = n
		return n
	case *ConstFloat:
		if n, ok := c.ops[op]; ok {
			return n
		}
		n := &ConstFloat{Val: o.Val}
		c.ops[op] = n
		return n
	default:
		panic("ir: Clone of unknown operand kind")
	}
}

func (c *cloner) mu(m *Mu) *Mu {
	if c.oldA != nil && m.aidx > 0 {
		if i := m.aidx - 1; i < c.oldA.mus.n && c.oldA.mus.at(i) == m {
			return c.newA.mus.at(i)
		}
	}
	if n, ok := c.mus[m]; ok {
		return n
	}
	n := &Mu{Sym: c.sym(m.Sym), Ver: m.Ver, Spec: m.Spec}
	c.mus[m] = n
	return n
}

// chi clones through the map only: chis are heap-allocated by alias
// analysis and flag assignment, never in an arena.
func (c *cloner) chi(ch *Chi) *Chi {
	if n, ok := c.chis[ch]; ok {
		return n
	}
	n := &Chi{Sym: c.sym(ch.Sym), NewVer: ch.NewVer, OldVer: ch.OldVer, Spec: ch.Spec}
	c.chis[ch] = n
	return n
}

func (c *cloner) phi(p *Phi) *Phi {
	if p == nil {
		return nil
	}
	if c.oldA != nil && p.aidx > 0 {
		if i := p.aidx - 1; i < c.oldA.phis.n && c.oldA.phis.at(i) == p {
			return c.newA.phis.at(i)
		}
	}
	n := &Phi{Sym: c.sym(p.Sym), Ver: p.Ver, Args: c.refList(p.Args)}
	return n
}

func (c *cloner) muList(ms []*Mu) []*Mu {
	if ms == nil {
		return nil
	}
	out := c.muBuf.make(len(ms))
	for i, m := range ms {
		out[i] = c.mu(m)
	}
	return out
}

func (c *cloner) chiList(chs []*Chi) []*Chi {
	if chs == nil {
		return nil
	}
	out := c.chiBuf.make(len(chs))
	for i, ch := range chs {
		out[i] = c.chi(ch)
	}
	return out
}

func (c *cloner) refList(rs []*Ref) []*Ref {
	if rs == nil {
		return nil
	}
	out := c.refBuf.make(len(rs))
	for i, r := range rs {
		out[i] = c.ref(r)
	}
	return out
}

func (c *cloner) opList(ops []Operand) []Operand {
	if ops == nil {
		return nil
	}
	out := c.opBuf.make(len(ops))
	for i, o := range ops {
		out[i] = c.operand(o)
	}
	return out
}

func (c *cloner) blockList(bs []*Block) []*Block {
	if bs == nil {
		return nil
	}
	out := c.blkBuf.make(len(bs))
	for i, b := range bs {
		out[i] = c.block(b)
	}
	return out
}

func (c *cloner) stmt(s Stmt) Stmt {
	switch t := s.(type) {
	case *Assign:
		if c.oldA != nil && t.aidx > 0 {
			if i := t.aidx - 1; i < c.oldA.assigns.n && c.oldA.assigns.at(i) == t {
				return c.newA.assigns.at(i)
			}
		}
		return &Assign{
			Dst:       c.ref(t.Dst),
			RK:        t.RK,
			Op:        t.Op,
			A:         c.operand(t.A),
			B:         c.operand(t.B),
			Mus:       c.muList(t.Mus),
			Chis:      c.chiList(t.Chis),
			VV:        c.ref(t.VV),
			AllocSite: t.AllocSite,
			Site:      t.Site,
			Spec:      t.Spec,
			LoadsFrom: t.LoadsFrom,
		}
	case *IStore:
		if c.oldA != nil && t.aidx > 0 {
			if i := t.aidx - 1; i < c.oldA.istores.n && c.oldA.istores.at(i) == t {
				return c.newA.istores.at(i)
			}
		}
		return &IStore{
			Addr:     c.operand(t.Addr),
			Val:      c.operand(t.Val),
			VV:       c.ref(t.VV),
			VVOld:    t.VVOld,
			Chis:     c.chiList(t.Chis),
			StoresTo: t.StoresTo,
			Site:     t.Site,
		}
	case *Call:
		if c.oldA != nil && t.aidx > 0 {
			if i := t.aidx - 1; i < c.oldA.calls.n && c.oldA.calls.at(i) == t {
				return c.newA.calls.at(i)
			}
		}
		return &Call{Fn: t.Fn, Args: c.opList(t.Args), Dst: c.ref(t.Dst),
			Mus: c.muList(t.Mus), Chis: c.chiList(t.Chis), Site: t.Site}
	case *Print:
		if c.oldA != nil && t.aidx > 0 {
			if i := t.aidx - 1; i < c.oldA.prints.n && c.oldA.prints.at(i) == t {
				return c.newA.prints.at(i)
			}
		}
		return &Print{Args: c.opList(t.Args)}
	}
	panic("ir: Clone of unknown statement kind")
}

func (c *cloner) stmtList(ss []Stmt) []Stmt {
	if ss == nil {
		return nil
	}
	out := c.stmtBuf.make(len(ss))
	for i, s := range ss {
		out[i] = c.stmt(s)
	}
	return out
}

func (c *cloner) phiList(ps []*Phi) []*Phi {
	if ps == nil {
		return nil
	}
	out := c.phiBuf.make(len(ps))
	for i, p := range ps {
		out[i] = c.phi(p)
	}
	return out
}

// arenaBlock reports whether b lives in the current function's arena
// (verified by slab index), i.e. fixArena has already populated its clone.
func (c *cloner) arenaBlock(b *Block) bool {
	return c.oldA != nil && b.aidx > 0 && b.aidx-1 < c.oldA.blocks.n &&
		c.oldA.blocks.at(b.aidx-1) == b
}

// block returns the clone shell for b, creating it on first use so that
// CFG edges can be wired before block bodies are filled in. Arena-backed
// blocks come back fully populated (fixArena fills slab blocks in place).
func (c *cloner) block(b *Block) *Block {
	if b == nil {
		return nil
	}
	if c.oldA != nil && b.aidx > 0 {
		if i := b.aidx - 1; i < c.oldA.blocks.n && c.oldA.blocks.at(i) == b {
			return c.newA.blocks.at(i)
		}
	}
	if n, ok := c.blocks[b]; ok {
		return n
	}
	n := &Block{ID: b.ID, Freq: b.Freq}
	c.blocks[b] = n
	return n
}

// fillBlock deep-copies the body of a non-arena block into its shell.
func (c *cloner) fillBlock(b, nb *Block) {
	if b.EdgeFreq != nil {
		nb.EdgeFreq = append([]float64(nil), b.EdgeFreq...)
	}
	nb.Preds = c.blockList(b.Preds)
	nb.Succs = c.blockList(b.Succs)
	nb.Phis = c.phiList(b.Phis)
	nb.Stmts = c.stmtList(b.Stmts)
	nb.Term = Term{Kind: b.Term.Kind, Cond: c.operand(b.Term.Cond), Val: c.operand(b.Term.Val)}
}

// fixArena remaps the pointer fields of every object in the freshly
// copied slabs. The copied fields still hold pointers into the original
// function, so each is translated through the cloner (arena index fast
// path, map fallback for literal-built objects). Slab order within a
// pass is irrelevant: translation needs only object identity, and every
// fixup writes its own object.
func (c *cloner) fixArena() {
	oldA, newA := c.oldA, c.newA
	for i := int32(0); i < newA.refs.n; i++ {
		n := newA.refs.at(i)
		n.Sym = c.sym(n.Sym)
	}
	for i := int32(0); i < newA.addrs.n; i++ {
		n := newA.addrs.at(i)
		n.Sym = c.sym(n.Sym)
	}
	for i := int32(0); i < newA.mus.n; i++ {
		n := newA.mus.at(i)
		n.Sym = c.sym(n.Sym)
	}
	for i := int32(0); i < newA.assigns.n; i++ {
		n := newA.assigns.at(i)
		n.Dst = c.ref(n.Dst)
		n.A = c.operand(n.A)
		n.B = c.operand(n.B)
		n.Mus = c.muList(n.Mus)
		n.Chis = c.chiList(n.Chis)
		n.VV = c.ref(n.VV)
	}
	for i := int32(0); i < newA.istores.n; i++ {
		n := newA.istores.at(i)
		n.Addr = c.operand(n.Addr)
		n.Val = c.operand(n.Val)
		n.VV = c.ref(n.VV)
		n.Chis = c.chiList(n.Chis)
	}
	for i := int32(0); i < newA.calls.n; i++ {
		n := newA.calls.at(i)
		n.Args = c.opList(n.Args)
		n.Dst = c.ref(n.Dst)
		n.Mus = c.muList(n.Mus)
		n.Chis = c.chiList(n.Chis)
	}
	for i := int32(0); i < newA.prints.n; i++ {
		n := newA.prints.at(i)
		n.Args = c.opList(n.Args)
	}
	for i := int32(0); i < newA.phis.n; i++ {
		n := newA.phis.at(i)
		n.Sym = c.sym(n.Sym)
		n.Args = c.refList(n.Args)
	}
	for i := int32(0); i < newA.blocks.n; i++ {
		n := newA.blocks.at(i)
		if n.EdgeFreq != nil {
			n.EdgeFreq = append([]float64(nil), oldA.blocks.at(i).EdgeFreq...)
		}
		n.Preds = c.blockList(n.Preds)
		n.Succs = c.blockList(n.Succs)
		n.Phis = c.phiList(n.Phis)
		n.Stmts = c.stmtList(n.Stmts)
		n.Term.Cond = c.operand(n.Term.Cond)
		n.Term.Val = c.operand(n.Term.Val)
	}
}

func (c *cloner) fn(f *Func, np *Program) *Func {
	if f.arena != nil {
		c.oldA, c.newA = f.arena, &arena{}
		c.newA.syms.copyFrom(&f.arena.syms)
		c.newA.refs.copyFrom(&f.arena.refs)
		c.newA.addrs.copyFrom(&f.arena.addrs)
		c.newA.mus.copyFrom(&f.arena.mus)
		c.newA.assigns.copyFrom(&f.arena.assigns)
		c.newA.istores.copyFrom(&f.arena.istores)
		c.newA.calls.copyFrom(&f.arena.calls)
		c.newA.prints.copyFrom(&f.arena.prints)
		c.newA.phis.copyFrom(&f.arena.phis)
		c.newA.blocks.copyFrom(&f.arena.blocks)
		c.fixArena()
	}
	nf := &Func{
		Name:      f.Name,
		RetType:   f.RetType,
		FrameSize: f.FrameSize,
		prog:      np,
		index:     f.index,
		nextSym:   f.nextSym,
		nextBlk:   f.nextBlk,
		arena:     c.newA,
	}
	nf.Syms = c.symList(f.Syms)
	nf.Params = c.symList(f.Params)
	if f.Blocks != nil {
		nf.Blocks = c.blkBuf.make(len(f.Blocks))
		for i, b := range f.Blocks {
			nb := c.block(b)
			if !c.arenaBlock(b) {
				c.fillBlock(b, nb)
			}
			nf.Blocks[i] = nb
		}
	}
	nf.Entry = c.block(f.Entry)
	nf.Exit = c.block(f.Exit)
	c.oldA, c.newA = nil, nil
	return nf
}

func (c *cloner) symList(ss []*Sym) []*Sym {
	if ss == nil {
		return nil
	}
	out := c.symBuf.make(len(ss))
	for i, s := range ss {
		out[i] = c.sym(s)
	}
	return out
}
