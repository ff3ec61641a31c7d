// Package interp executes the mid-level IR directly. It serves three
// roles in the framework: (1) the profiling runtime — it collects edge
// profiles and the alias (LOC-set) profiles of §3.2.1 of Lin et al.
// (PLDI 2003); (2) the reference semantics — optimized programs compiled
// to the EPIC VM must produce identical output; (3) the limit-study
// vehicle for the paper's Fig. 12 load-reuse simulation.
package interp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/addrspace"
	"repro/internal/ir"
	"repro/internal/profile"
)

// Options configures an interpretation run.
type Options struct {
	// Args are the host-supplied input parameters returned by arg(i).
	Args []int64
	// CollectEdges enables edge/block profiling into Profile.
	CollectEdges bool
	// CollectAlias enables LOC-set alias profiling into Profile.
	CollectAlias bool
	// Profile receives collected data; allocated on demand if nil and
	// collection is enabled.
	Profile *profile.Profile
	// Out receives print() output; defaults to io.Discard.
	Out io.Writer
	// MaxSteps bounds execution (0 means the 1e9 default).
	MaxSteps int64
	// MaxCallDepth bounds recursion (0 means 10000).
	MaxCallDepth int
	// Ctx, if non-nil, cancels the run: it is polled every ctxPollSteps
	// steps, and a run it stops returns an error wrapping Ctx.Err().
	Ctx context.Context
	// Reuse, if non-nil, receives every dynamic memory access for the
	// Fig. 12 load-reuse limit simulation.
	Reuse *ReuseSim
	// MemTrace, if non-nil, records every dynamic memory access (the
	// same stream Reuse observes) for later sharded replay through
	// ShardedReuse.
	MemTrace *MemTrace
}

// Result reports what a run produced.
type Result struct {
	Ret       int64
	Steps     int64
	DynLoads  uint64 // dynamic loads executed (direct scalar + indirect)
	DynStores uint64
	Output    string // captured only if Options.Out was nil
}

// stackCap is the number of slots reserved for the call-stack region
// between the globals and the heap.
const stackCap = 1 << 20

// ctxPollSteps is how often, in steps, a run polls Options.Ctx.
const ctxPollSteps = 1 << 16

// Run executes prog starting at main.
func Run(prog *ir.Program, opts Options) (*Result, error) {
	m := &machine{prog: prog, opts: opts}
	if opts.MaxSteps == 0 {
		m.maxSteps = 1_000_000_000
	} else {
		m.maxSteps = opts.MaxSteps
	}
	m.maxDepth = opts.MaxCallDepth
	if m.maxDepth == 0 {
		m.maxDepth = 10000
	}
	var sb *strings.Builder
	if opts.Out == nil {
		sb = &strings.Builder{}
		m.out = sb
	} else {
		m.out = opts.Out
	}
	if opts.CollectEdges || opts.CollectAlias {
		if opts.Profile == nil {
			opts.Profile = profile.New()
		}
		m.prof = opts.Profile
	}
	m.mem = addrspace.New(prog.GlobSize, stackCap, prog.GlobalInit)
	m.globals = append([]*ir.Sym(nil), prog.Globals...)
	sort.Slice(m.globals, func(i, j int) bool { return m.globals[i].Addr < m.globals[j].Addr })

	mainFn, ok := prog.FuncMap["main"]
	if !ok {
		return nil, errors.New("interp: no main function")
	}
	ret, err := m.callFn(mainFn, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Ret: int64(ret), Steps: m.steps, DynLoads: m.loads, DynStores: m.stores}
	if sb != nil {
		res.Output = sb.String()
	}
	return res, nil
}

type heapObj struct {
	start, size int
	site        int
	ctx         int // immediate caller's call-site id (0 in main)
}

type frame struct {
	fn   *ir.Func
	regs []uint64
	base int
	id   int64 // unique activation id (for the reuse simulation)
}

type machine struct {
	prog    *ir.Program
	opts    Options
	out     io.Writer
	prof    *profile.Profile
	mem     addrspace.Space
	heap    []heapObj
	globals []*ir.Sym

	frames    []*frame
	callSites []int // active call-site ids for mod/ref attribution

	steps       int64
	maxSteps    int64
	maxDepth    int
	loads       uint64
	stores      uint64
	nextFrameID int64
}

// runtimeErr builds an execution error.
func runtimeErr(format string, args ...any) error {
	return fmt.Errorf("interp: %s", fmt.Sprintf(format, args...))
}

func (m *machine) callFn(fn *ir.Func, args []uint64) (uint64, error) {
	if len(m.frames) >= m.maxDepth {
		return 0, runtimeErr("call depth exceeded in %s", fn.Name)
	}
	nsyms := len(fn.Syms)
	m.nextFrameID++
	base, ok := m.mem.PushFrame(fn.FrameSize)
	if !ok {
		return 0, runtimeErr("stack overflow in %s", fn.Name)
	}
	fr := &frame{fn: fn, regs: make([]uint64, nsyms), base: base, id: m.nextFrameID}
	m.frames = append(m.frames, fr)
	defer func() {
		m.frames = m.frames[:len(m.frames)-1]
		m.mem.PopFrame(base)
	}()
	for i, p := range fn.Params {
		if i < len(args) {
			fr.regs[p.ID] = args[i]
		}
	}
	b := fn.Entry
	var prev *ir.Block
	for {
		m.steps++
		if m.steps > m.maxSteps {
			return 0, runtimeErr("step limit exceeded (%d)", m.maxSteps)
		}
		if m.opts.Ctx != nil && m.steps&(ctxPollSteps-1) == 0 {
			if err := m.opts.Ctx.Err(); err != nil {
				return 0, fmt.Errorf("interp: %w", err)
			}
		}
		if m.prof != nil && m.opts.CollectEdges {
			m.prof.BlockCount[profile.BlockOf(fn, b)]++
		}
		_ = prev
		for _, s := range b.Stmts {
			if err := m.exec(fr, s); err != nil {
				return 0, err
			}
		}
		switch b.Term.Kind {
		case ir.TermJump:
			m.countEdge(fn, b, 0)
			prev, b = b, b.Succs[0]
		case ir.TermCond:
			c, err := m.eval(fr, b.Term.Cond)
			if err != nil {
				return 0, err
			}
			idx := 1
			if int64(c) != 0 {
				idx = 0
			}
			m.countEdge(fn, b, idx)
			prev, b = b, b.Succs[idx]
		case ir.TermRet:
			if b.Term.Val == nil {
				return 0, nil
			}
			return m.eval(fr, b.Term.Val)
		default:
			return 0, runtimeErr("block B%d in %s has no terminator", b.ID, fn.Name)
		}
	}
}

func (m *machine) countEdge(fn *ir.Func, b *ir.Block, idx int) {
	if m.prof == nil || !m.opts.CollectEdges {
		return
	}
	k := profile.BlockOf(fn, b)
	counts := m.prof.EdgeCount[k]
	if counts == nil {
		counts = make([]uint64, len(b.Succs))
		m.prof.EdgeCount[k] = counts
	}
	counts[idx]++
}

// eval computes the value of a leaf operand.
func (m *machine) eval(fr *frame, op ir.Operand) (uint64, error) {
	switch o := op.(type) {
	case *ir.ConstInt:
		return uint64(o.Val), nil
	case *ir.ConstFloat:
		return math.Float64bits(o.Val), nil
	case *ir.Ref:
		if o.Sym.InMemory() {
			return 0, runtimeErr("memory-resident %s used as register operand (IR not legalized)", o.Sym.Name)
		}
		if o.Sym.Kind == ir.SymGlobal {
			return 0, runtimeErr("global %s used as register operand", o.Sym.Name)
		}
		return fr.regs[o.Sym.ID], nil
	case *ir.AddrOf:
		return uint64(m.symAddr(fr, o.Sym)), nil
	}
	return 0, runtimeErr("unknown operand %T", op)
}

func (m *machine) symAddr(fr *frame, s *ir.Sym) int {
	if s.Kind == ir.SymGlobal {
		return s.Addr
	}
	return fr.base + s.Addr
}

func (m *machine) exec(fr *frame, s ir.Stmt) error {
	switch st := s.(type) {
	case *ir.Assign:
		return m.execAssign(fr, st)
	case *ir.IStore:
		addr, err := m.eval(fr, st.Addr)
		if err != nil {
			return err
		}
		val, err := m.eval(fr, st.Val)
		if err != nil {
			return err
		}
		return m.storeMem(int(int64(addr)), val, st.Site)
	case *ir.Call:
		return m.execCall(fr, st)
	case *ir.Print:
		var parts []string
		for _, a := range st.Args {
			v, err := m.eval(fr, a)
			if err != nil {
				return err
			}
			parts = append(parts, formatVal(v, a.Type()))
		}
		fmt.Fprintln(m.out, strings.Join(parts, " "))
		return nil
	}
	return runtimeErr("unknown statement %T", s)
}

func formatVal(v uint64, t *ir.Type) string {
	if t.IsFloat() {
		return fmt.Sprintf("%.6g", math.Float64frombits(v))
	}
	return fmt.Sprintf("%d", int64(v))
}

func (m *machine) execAssign(fr *frame, st *ir.Assign) error {
	var val uint64
	switch st.RK {
	case ir.RHSCopy:
		if r, ok := st.A.(*ir.Ref); ok && r.Sym.InMemory() {
			// direct load of a memory-resident scalar
			v, err := m.loadMem(m.symAddr(fr, r.Sym), 0)
			if err != nil {
				return err
			}
			m.recordDirectRef(r.Sym, false)
			val = v
		} else {
			v, err := m.eval(fr, st.A)
			if err != nil {
				return err
			}
			val = v
		}
	case ir.RHSUnary:
		a, err := m.eval(fr, st.A)
		if err != nil {
			return err
		}
		v, err := evalUnary(st.Op, a, st.A.Type())
		if err != nil {
			return err
		}
		val = v
	case ir.RHSBinary:
		a, err := m.eval(fr, st.A)
		if err != nil {
			return err
		}
		b, err := m.eval(fr, st.B)
		if err != nil {
			return err
		}
		v, err := evalBinary(st.Op, a, b, st.A.Type(), st.B.Type())
		if err != nil {
			return err
		}
		val = v
	case ir.RHSLoad:
		addr, err := m.eval(fr, st.A)
		if err != nil {
			return err
		}
		v, err := m.loadMem(int(int64(addr)), st.Site)
		if err != nil {
			return err
		}
		val = v
	case ir.RHSAlloc:
		n, err := m.eval(fr, st.A)
		if err != nil {
			return err
		}
		sz := int(int64(n))
		if sz < 0 {
			return runtimeErr("negative allocation size %d", sz)
		}
		start := m.mem.Alloc(sz)
		ctx := 0
		if len(m.callSites) > 0 {
			ctx = m.callSites[len(m.callSites)-1]
		}
		m.heap = append(m.heap, heapObj{start: start, size: sz, site: st.AllocSite, ctx: ctx})
		val = uint64(start)
	}
	// write destination
	dst := st.Dst.Sym
	if dst.InMemory() {
		m.recordDirectRef(dst, true)
		return m.storeMemRaw(m.symAddr(fr, dst), val)
	}
	fr.regs[dst.ID] = val
	return nil
}

func (m *machine) execCall(fr *frame, st *ir.Call) error {
	if st.Fn == "arg" {
		i, err := m.eval(fr, st.Args[0])
		if err != nil {
			return err
		}
		var v int64
		if idx := int(int64(i)); idx >= 0 && idx < len(m.opts.Args) {
			v = m.opts.Args[idx]
		}
		if st.Dst != nil {
			fr.regs[st.Dst.Sym.ID] = uint64(v)
		}
		return nil
	}
	callee, ok := m.prog.FuncMap[st.Fn]
	if !ok {
		return runtimeErr("call to unknown function %q", st.Fn)
	}
	args := make([]uint64, len(st.Args))
	for i, a := range st.Args {
		v, err := m.eval(fr, a)
		if err != nil {
			return err
		}
		args[i] = v
	}
	if m.prof != nil && m.opts.CollectAlias && st.Site != 0 {
		m.prof.AddExec(st.Site)
	}
	m.callSites = append(m.callSites, st.Site)
	defer func() { m.callSites = m.callSites[:len(m.callSites)-1] }()
	ret, err := m.callFn(callee, args)
	if err != nil {
		return err
	}
	if st.Dst != nil {
		fr.regs[st.Dst.Sym.ID] = ret
	}
	return nil
}

// loadMem reads a slot, performing profiling bookkeeping. site is the
// indirect-reference site id (0 for direct loads, which record through
// recordDirectRef instead).
func (m *machine) loadMem(addr int, site int) (uint64, error) {
	if !m.mem.Valid(addr) {
		return 0, runtimeErr("load from invalid address %d", addr)
	}
	val := m.mem.Load(addr)
	m.loads++
	if m.opts.Reuse != nil {
		m.opts.Reuse.access(site, addr, val, false, m.curFrameID())
	}
	if m.opts.MemTrace != nil {
		m.opts.MemTrace.append(MemEvent{Site: site, Addr: addr, Val: val, Invocation: m.curFrameID()})
	}
	if m.prof != nil && m.opts.CollectAlias {
		// every execution counts toward the site total, even one whose
		// address resolves to no nameable LOC — that keeps each LOC's
		// count/total alias probability at most 1
		if site != 0 {
			m.prof.AddExec(site)
		}
		loc, ok := m.locate(addr)
		if ok {
			if site != 0 {
				m.prof.LoadSet(site).Add(loc)
			}
			for _, cs := range m.callSites {
				m.prof.RefSet(cs).Add(loc)
			}
		}
	}
	return val, nil
}

// storeMem writes a slot through an indirect store site.
func (m *machine) storeMem(addr int, val uint64, site int) error {
	if !m.mem.Valid(addr) {
		return runtimeErr("store to invalid address %d", addr)
	}
	m.stores++
	if m.opts.Reuse != nil {
		m.opts.Reuse.access(site, addr, val, true, m.curFrameID())
	}
	if m.opts.MemTrace != nil {
		m.opts.MemTrace.append(MemEvent{Site: site, Addr: addr, Val: val, Invocation: m.curFrameID(), Store: true})
	}
	if m.prof != nil && m.opts.CollectAlias {
		if site != 0 {
			m.prof.AddExec(site)
		}
		loc, ok := m.locate(addr)
		if ok {
			if site != 0 {
				m.prof.StoreSet(site).Add(loc)
			}
			for _, cs := range m.callSites {
				m.prof.ModSet(cs).Add(loc)
			}
		}
	}
	m.mem.Store(addr, val)
	return nil
}

// storeMemRaw writes a slot for a direct store (no site attribution; the
// mod set attribution happens in recordDirectRef).
func (m *machine) storeMemRaw(addr int, val uint64) error {
	if !m.mem.Valid(addr) {
		return runtimeErr("store to invalid address %d", addr)
	}
	m.stores++
	if m.opts.Reuse != nil {
		m.opts.Reuse.access(0, addr, val, true, m.curFrameID())
	}
	if m.opts.MemTrace != nil {
		m.opts.MemTrace.append(MemEvent{Addr: addr, Val: val, Invocation: m.curFrameID(), Store: true})
	}
	m.mem.Store(addr, val)
	return nil
}

// curFrameID returns the activation id of the innermost frame.
func (m *machine) curFrameID() int64 {
	if len(m.frames) == 0 {
		return 0
	}
	return m.frames[len(m.frames)-1].id
}

// recordDirectRef attributes a direct (named-variable) memory access to
// the enclosing call sites' mod/ref sets.
func (m *machine) recordDirectRef(s *ir.Sym, isMod bool) {
	if m.prof == nil || !m.opts.CollectAlias || len(m.callSites) == 0 {
		return
	}
	var loc profile.Loc
	if s.Kind == ir.SymGlobal {
		loc = profile.GlobalLoc(s)
	} else {
		fr := m.frames[len(m.frames)-1]
		loc = profile.LocalLoc(fr.fn, s)
	}
	if isMod {
		for _, cs := range m.callSites {
			m.prof.ModSet(cs).Add(loc)
		}
	} else {
		for _, cs := range m.callSites {
			m.prof.RefSet(cs).Add(loc)
		}
	}
	if m.opts.Reuse != nil && len(m.frames) > 0 {
		// direct refs participate in reuse tracking via loadMem/storeMem
	}
}

// locate resolves a slot address to its abstract memory location.
func (m *machine) locate(addr int) (profile.Loc, bool) {
	switch {
	case addr < m.prog.GlobSize:
		i := sort.Search(len(m.globals), func(i int) bool {
			return m.globals[i].Addr > addr
		}) - 1
		if i < 0 {
			return profile.Loc{}, false
		}
		g := m.globals[i]
		if addr < g.Addr+g.Type.Size() {
			return profile.GlobalLoc(g), true
		}
		return profile.Loc{}, false
	case addr < m.mem.HeapBase():
		// stack: scan active frames (innermost first)
		for i := len(m.frames) - 1; i >= 0; i-- {
			fr := m.frames[i]
			if addr >= fr.base && addr < fr.base+fr.fn.FrameSize {
				off := addr - fr.base
				for _, s := range fr.fn.Syms {
					if s.Kind != ir.SymVirtual && s.Kind != ir.SymGlobal && s.InMemory() {
						if off >= s.Addr && off < s.Addr+s.Type.Size() {
							return profile.LocalLoc(fr.fn, s), true
						}
					}
				}
				return profile.Loc{}, false
			}
		}
		return profile.Loc{}, false
	default:
		i := sort.Search(len(m.heap), func(i int) bool {
			return m.heap[i].start > addr
		}) - 1
		if i < 0 {
			return profile.Loc{}, false
		}
		h := m.heap[i]
		if addr < h.start+h.size {
			return profile.HeapLoc(h.site, h.ctx), true
		}
		return profile.Loc{}, false
	}
}

func evalUnary(op ir.Op, a uint64, t *ir.Type) (uint64, error) {
	switch op {
	case ir.OpNeg:
		if t.IsFloat() {
			return math.Float64bits(-math.Float64frombits(a)), nil
		}
		return uint64(-int64(a)), nil
	case ir.OpNot:
		if int64(a) == 0 {
			return 1, nil
		}
		return 0, nil
	case ir.OpIntToFloat:
		return math.Float64bits(float64(int64(a))), nil
	case ir.OpFloatToInt:
		return uint64(int64(math.Float64frombits(a))), nil
	}
	return 0, runtimeErr("unknown unary op %v", op)
}

func evalBinary(op ir.Op, a, b uint64, ta, tb *ir.Type) (uint64, error) {
	isFloat := ta.IsFloat() || tb.IsFloat()
	boolToU := func(x bool) uint64 {
		if x {
			return 1
		}
		return 0
	}
	if isFloat {
		fa, fb := math.Float64frombits(a), math.Float64frombits(b)
		switch op {
		case ir.OpAdd:
			return math.Float64bits(fa + fb), nil
		case ir.OpSub:
			return math.Float64bits(fa - fb), nil
		case ir.OpMul:
			return math.Float64bits(fa * fb), nil
		case ir.OpDiv:
			return math.Float64bits(fa / fb), nil
		case ir.OpEq:
			return boolToU(fa == fb), nil
		case ir.OpNe:
			return boolToU(fa != fb), nil
		case ir.OpLt:
			return boolToU(fa < fb), nil
		case ir.OpLe:
			return boolToU(fa <= fb), nil
		case ir.OpGt:
			return boolToU(fa > fb), nil
		case ir.OpGe:
			return boolToU(fa >= fb), nil
		}
		return 0, runtimeErr("op %v not defined on float", op)
	}
	ia, ib := int64(a), int64(b)
	switch op {
	case ir.OpAdd:
		return uint64(ia + ib), nil
	case ir.OpSub:
		return uint64(ia - ib), nil
	case ir.OpMul:
		return uint64(ia * ib), nil
	case ir.OpDiv:
		if ib == 0 {
			return 0, runtimeErr("integer division by zero")
		}
		return uint64(ia / ib), nil
	case ir.OpMod:
		if ib == 0 {
			return 0, runtimeErr("integer modulo by zero")
		}
		return uint64(ia % ib), nil
	case ir.OpEq:
		return boolToU(ia == ib), nil
	case ir.OpNe:
		return boolToU(ia != ib), nil
	case ir.OpLt:
		return boolToU(ia < ib), nil
	case ir.OpLe:
		return boolToU(ia <= ib), nil
	case ir.OpGt:
		return boolToU(ia > ib), nil
	case ir.OpGe:
		return boolToU(ia >= ib), nil
	case ir.OpAnd:
		return uint64(ia & ib), nil
	case ir.OpOr:
		return uint64(ia | ib), nil
	case ir.OpXor:
		return uint64(ia ^ ib), nil
	case ir.OpShl:
		return uint64(ia << (uint64(ib) & 63)), nil
	case ir.OpShr:
		return uint64(ia >> (uint64(ib) & 63)), nil
	}
	return 0, runtimeErr("unknown binary op %v", op)
}
