package ir

import (
	"fmt"
	"sort"
	"strings"
)

// Phi is a variable phi node (the lowercase φ of the paper, as opposed to
// SSAPRE's expression Φ). Args are parallel to Block.Preds.
type Phi struct {
	Sym  *Sym
	Ver  int
	Args []*Ref

	aidx int32 // slab index +1 (see arena.go); 0 = literal-built
}

func (p *Phi) String() string {
	var args []string
	for _, a := range p.Args {
		args = append(args, a.String())
	}
	return fmt.Sprintf("%s_%d = phi(%s)", p.Sym.Name, p.Ver, strings.Join(args, ", "))
}

// TermKind discriminates block terminators.
type TermKind int

const (
	// TermJump is an unconditional branch to Succs[0].
	TermJump TermKind = iota
	// TermCond branches on Cond != 0 to Succs[0] (true) else Succs[1].
	TermCond
	// TermRet returns from the function, optionally with a value.
	TermRet
)

// Term is a basic-block terminator.
type Term struct {
	Kind TermKind
	Cond Operand // for TermCond
	Val  Operand // for TermRet, may be nil
}

// Block is a basic block: phis, straight-line statements, one terminator.
type Block struct {
	ID    int
	Stmts []Stmt
	Term  Term
	Preds []*Block
	Succs []*Block
	Phis  []*Phi

	// Freq is the execution frequency of the block from edge profiling
	// (or a static estimate); EdgeFreq[i] is the frequency of the edge to
	// Succs[i].
	Freq     float64
	EdgeFreq []float64

	aidx int32 // slab index +1 (see arena.go); 0 = literal-built
}

// PredIndex returns the position of p in b.Preds, or -1.
func (b *Block) PredIndex(p *Block) int {
	for i, q := range b.Preds {
		if q == p {
			return i
		}
	}
	return -1
}

// SuccIndex returns the position of s in b.Succs, or -1.
func (b *Block) SuccIndex(s *Block) int {
	for i, q := range b.Succs {
		if q == s {
			return i
		}
	}
	return -1
}

// Func is a single function: parameters, symbols, and a CFG.
type Func struct {
	Name    string
	Params  []*Sym
	RetType *Type
	Syms    []*Sym // all function-scope symbols (params, locals, temps, virtuals)
	Blocks  []*Block
	Entry   *Block
	Exit    *Block // synthetic exit; every TermRet block is a pred

	// FrameSize is the number of memory slots occupied by memory-resident
	// locals (assigned by AssignFrameOffsets).
	FrameSize int

	prog    *Program
	index   int // position in prog.Funcs
	nextSym int
	nextBlk int
	arena   *arena // slab allocator for this function's IR objects (see arena.go)
}

// Program is a whole MiniC translation unit.
type Program struct {
	Funcs    []*Func
	FuncMap  map[string]*Func
	Globals  []*Sym
	GlobSize int // total slots of the global segment

	// GlobalInit holds initial slot values for the global segment
	// (sparse; unset slots are zero).
	GlobalInit map[int]uint64

	nextGlobal int
	nextSite   int
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{FuncMap: map[string]*Func{}, GlobalInit: map[int]uint64{}}
}

// NewFunc creates a function, registers it, and returns it.
func (p *Program) NewFunc(name string, ret *Type) *Func {
	f := &Func{Name: name, RetType: ret, prog: p, index: len(p.Funcs)}
	p.Funcs = append(p.Funcs, f)
	p.FuncMap[name] = f
	return f
}

// NewGlobal creates a global symbol and assigns its address.
func (p *Program) NewGlobal(name string, t *Type) *Sym {
	s := &Sym{Name: name, Type: t, Kind: SymGlobal, ID: p.nextGlobal, Class: -1, Addr: p.GlobSize}
	p.nextGlobal++
	p.GlobSize += t.Size()
	p.Globals = append(p.Globals, s)
	return s
}

// NextSite returns a fresh program-unique site id (used for call sites and
// allocation sites, which name heap LOCs in alias profiles).
func (p *Program) NextSite() int {
	p.nextSite++
	return p.nextSite
}

// NumSites returns how many site ids have been handed out.
func (p *Program) NumSites() int { return p.nextSite }

// Prog returns the program owning the function.
func (f *Func) Prog() *Program { return f.prog }

// Index returns the function's position in its program's Funcs. It is
// the same in every Clone, so it names the function across copies of
// one program (profiles key their per-function data by it).
func (f *Func) Index() int { return f.index }

// SymByID returns the function-scope symbol with the given ID, or nil.
func (f *Func) SymByID(id int) *Sym { return symByID(f.Syms, id) }

// GlobalByID returns the global with the given ID, or nil.
func (p *Program) GlobalByID(id int) *Sym { return symByID(p.Globals, id) }

// symByID finds id in syms: the factory methods number symbols by
// their position in the owning list.
func symByID(syms []*Sym, id int) *Sym {
	if id >= 0 && id < len(syms) {
		return syms[id]
	}
	return nil
}

// NewSym creates a function-scope symbol (arena-allocated; see arena.go).
func (f *Func) NewSym(name string, t *Type, kind SymKind) *Sym {
	s, i := f.arenaOf().syms.alloc(Sym{Name: name, Type: t, Kind: kind, ID: f.nextSym, Class: -1})
	s.aidx = i + 1
	f.nextSym++
	f.Syms = append(f.Syms, s)
	if kind == SymParam {
		f.Params = append(f.Params, s)
	}
	return s
}

// NewTemp creates a fresh compiler temporary of type t.
func (f *Func) NewTemp(t *Type) *Sym {
	return f.NewSym(fmt.Sprintf("t%d", f.nextSym), t, SymTemp)
}

// NewBlock appends a new empty block to the function
// (arena-allocated; see arena.go).
func (f *Func) NewBlock() *Block {
	b, i := f.arenaOf().blocks.alloc(Block{ID: f.nextBlk})
	b.aidx = i + 1
	f.nextBlk++
	f.Blocks = append(f.Blocks, b)
	return b
}

// Connect adds a CFG edge from b to s.
func Connect(b, s *Block) {
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// AssignFrameOffsets lays out memory-resident locals in the frame and
// records the frame size.
func (f *Func) AssignFrameOffsets() {
	off := 0
	for _, s := range f.Syms {
		if s.Kind == SymVirtual || s.Kind == SymGlobal {
			continue
		}
		if s.InMemory() {
			s.Addr = off
			off += s.Type.Size()
		}
	}
	f.FrameSize = off
}

// SplitCriticalEdges splits every edge whose source has multiple successors
// and whose destination has multiple predecessors, inserting an empty
// jump-only block. SSAPRE requires this so insertions on edges have a home.
func (f *Func) SplitCriticalEdges() {
	// Collect first: we mutate the block list.
	type edge struct {
		from *Block
		si   int
	}
	var crit []edge
	for _, b := range f.Blocks {
		if len(b.Succs) < 2 {
			continue
		}
		for i, s := range b.Succs {
			if len(s.Preds) >= 2 {
				crit = append(crit, edge{b, i})
			}
		}
	}
	for _, e := range crit {
		from := e.from
		to := from.Succs[e.si]
		mid := f.NewBlock()
		mid.Term = Term{Kind: TermJump}
		mid.Succs = []*Block{to}
		mid.Preds = []*Block{from}
		from.Succs[e.si] = mid
		pi := to.PredIndex(from)
		to.Preds[pi] = mid
	}
}

// RPO returns the blocks of f in reverse post-order from the entry.
func (f *Func) RPO() []*Block {
	seen := make(map[*Block]bool, len(f.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if f.Entry != nil {
		dfs(f.Entry)
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// RemoveUnreachable deletes blocks not reachable from the entry and fixes
// up predecessor lists.
func (f *Func) RemoveUnreachable() {
	reach := make(map[*Block]bool)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		reach[b] = true
		for _, s := range b.Succs {
			if !reach[s] {
				dfs(s)
			}
		}
	}
	if f.Entry != nil {
		dfs(f.Entry)
	}
	var kept []*Block
	for _, b := range f.Blocks {
		if reach[b] {
			kept = append(kept, b)
			var preds []*Block
			for _, p := range b.Preds {
				if reach[p] {
					preds = append(preds, p)
				}
			}
			b.Preds = preds
		}
	}
	f.Blocks = kept
}

// String renders the function IR for golden tests and debugging.
func (f *Func) String() string {
	var b strings.Builder
	var params []string
	for _, p := range f.Params {
		params = append(params, fmt.Sprintf("%s %s", p.Type, p.Name))
	}
	fmt.Fprintf(&b, "func %s(%s) %s {\n", f.Name, strings.Join(params, ", "), f.RetType)
	for _, blk := range f.Blocks {
		var preds []string
		for _, p := range blk.Preds {
			preds = append(preds, fmt.Sprintf("B%d", p.ID))
		}
		fmt.Fprintf(&b, "B%d:", blk.ID)
		if len(preds) > 0 {
			fmt.Fprintf(&b, "  ; preds: %s", strings.Join(preds, ","))
		}
		b.WriteString("\n")
		for _, phi := range blk.Phis {
			fmt.Fprintf(&b, "  %s\n", phi)
		}
		for _, s := range blk.Stmts {
			fmt.Fprintf(&b, "  %s\n", s)
		}
		switch blk.Term.Kind {
		case TermJump:
			if len(blk.Succs) > 0 {
				fmt.Fprintf(&b, "  goto B%d\n", blk.Succs[0].ID)
			}
		case TermCond:
			fmt.Fprintf(&b, "  if %s goto B%d else B%d\n", blk.Term.Cond, blk.Succs[0].ID, blk.Succs[1].ID)
		case TermRet:
			if blk.Term.Val != nil {
				fmt.Fprintf(&b, "  return %s\n", blk.Term.Val)
			} else {
				fmt.Fprintf(&b, "  return\n")
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String renders the whole program.
func (p *Program) String() string {
	var b strings.Builder
	if len(p.Globals) > 0 {
		var gs []string
		for _, g := range p.Globals {
			gs = append(gs, fmt.Sprintf("%s %s@%d", g.Type, g.Name, g.Addr))
		}
		sort.Strings(gs)
		fmt.Fprintf(&b, "globals: %s\n", strings.Join(gs, ", "))
	}
	for _, f := range p.Funcs {
		b.WriteString(f.String())
	}
	return b.String()
}
