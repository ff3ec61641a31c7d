package ir

import (
	"fmt"
	"strings"
)

// Mu is an HSSA may-use: the statement (an indirect load or a call) may
// read the current version of Sym. Spec marks it as a speculative use (the
// paper's μs): the reference is highly likely to happen at run time.
type Mu struct {
	Sym  *Sym
	Ver  int
	Spec bool

	aidx int32 // slab index +1 (see arena.go); 0 = literal-built
}

func (m *Mu) String() string {
	tag := "mu"
	if m.Spec {
		tag = "mu_s"
	}
	return fmt.Sprintf("%s(%s_%d)", tag, m.Sym.Name, m.Ver)
}

// Chi is an HSSA may-def: the statement (an indirect store, aliasing direct
// store, or call) may overwrite Sym, producing a new version from the old
// one. Spec marks it as a speculative update (the paper's χs): the update
// is highly likely and must not be ignored. A Chi without the flag is a
// *speculative weak update* that speculative phases may skip, at the price
// of a run-time check.
type Chi struct {
	Sym    *Sym
	NewVer int
	OldVer int
	Spec   bool
}

func (c *Chi) String() string {
	tag := "chi"
	if c.Spec {
		tag = "chi_s"
	}
	return fmt.Sprintf("%s_%d = %s(%s_%d)", c.Sym.Name, c.NewVer, tag, c.Sym.Name, c.OldVer)
}

// SpecFlags carries the data-speculation annotations that the speculative
// SSAPRE CodeMotion step (paper Appendix B) attaches to statements, and
// that code generation turns into IA-64-style instructions.
type SpecFlags struct {
	// AdvLoad: this load's result must be entered in the ALAT (emit ld.a
	// instead of ld).
	AdvLoad bool
	// CheckLoad: this load is a check of an earlier advanced load (emit
	// ld.c: reuse the register value if the ALAT entry survives, reload
	// otherwise).
	CheckLoad bool
	// SpecLoad: this load was hoisted above a branch by control
	// speculation (emit ld.s; faults are deferred to the chk.s).
	SpecLoad bool
}

func (f SpecFlags) String() string {
	var tags []string
	if f.AdvLoad {
		tags = append(tags, "ld.a")
	}
	if f.CheckLoad {
		tags = append(tags, "ld.c")
	}
	if f.SpecLoad {
		tags = append(tags, "ld.s")
	}
	if len(tags) == 0 {
		return ""
	}
	return " <" + strings.Join(tags, ",") + ">"
}

// Stmt is a statement of the flattened IR. Implementations: *Assign,
// *IStore, *Call, *Print.
type Stmt interface {
	stmt()
	String() string
}

// RHSKind classifies the right-hand side of an Assign.
type RHSKind int

const (
	// RHSCopy: Dst = Src (Src is A).
	RHSCopy RHSKind = iota
	// RHSUnary: Dst = op A.
	RHSUnary
	// RHSBinary: Dst = A op B.
	RHSBinary
	// RHSLoad: Dst = *A (indirect load through pointer operand A).
	RHSLoad
	// RHSAlloc: Dst = alloc(A) — heap allocation of A slots.
	RHSAlloc
)

// Assign is the workhorse statement: Dst := <rhs>. Dst is a versioned
// definition of a symbol. If Dst.Sym is memory-resident the assignment is a
// direct store and may carry a Chi list for aliased virtual variables; if
// the RHS is a load (direct read of a memory-resident scalar appears as
// RHSCopy with a Ref to that scalar; indirect load as RHSLoad) the
// statement may carry a Mu list.
type Assign struct {
	Dst *Ref
	RK  RHSKind
	Op  Op      // for RHSUnary / RHSBinary
	A   Operand // first operand (address for RHSLoad, size for RHSAlloc)
	B   Operand // second operand for RHSBinary

	Mus  []*Mu  // may-uses (indirect loads; direct loads of aliased scalars)
	Chis []*Chi // may-defs (direct stores to aliased memory scalars)

	// VV is the virtual-variable occurrence for an RHSLoad: the version of
	// the alias class's virtual variable current at this load. It names
	// the value of the indirect memory location for SSAPRE.
	VV *Ref

	// AllocSite is the allocation-site id for RHSAlloc (used as the heap
	// LOC name in alias profiles).
	AllocSite int

	// Site is the program-unique reference-site id for an RHSLoad,
	// keying its entry in alias profiles.
	Site int

	Spec SpecFlags

	// LoadsFrom records, for a direct read (RHSCopy from a
	// memory-resident scalar) or RHSLoad, the declared element type, so
	// codegen can pick int vs float load latency.
	LoadsFrom *Type

	aidx int32 // slab index +1 (see arena.go); 0 = literal-built
}

func (*Assign) stmt() {}

func (a *Assign) String() string {
	var rhs string
	switch a.RK {
	case RHSCopy:
		rhs = a.A.String()
	case RHSUnary:
		rhs = fmt.Sprintf("%s %s", a.Op, a.A)
	case RHSBinary:
		rhs = fmt.Sprintf("%s %s %s", a.A, a.Op, a.B)
	case RHSLoad:
		rhs = fmt.Sprintf("*%s", a.A)
		if a.VV != nil {
			rhs += fmt.Sprintf(" [%s]", a.VV)
		}
	case RHSAlloc:
		rhs = fmt.Sprintf("alloc(%s)", a.A)
	}
	s := fmt.Sprintf("%s = %s%s", a.Dst, rhs, a.Spec)
	s += annotations(a.Mus, a.Chis)
	return s
}

// IStore is an indirect store *Addr := Val. It may-defs every member of the
// pointed-to alias class (the Chi list) and defines a new version of the
// class's virtual variable (VV).
type IStore struct {
	Addr  Operand
	Val   Operand
	VV    *Ref // new version of the virtual variable defined by this store
	VVOld int  // previous version of the virtual variable
	Chis  []*Chi
	// StoresTo is the declared element type of the store target.
	StoresTo *Type
	// Site is the program-unique reference-site id, keying alias profiles.
	Site int

	aidx int32 // slab index +1 (see arena.go); 0 = literal-built
}

func (*IStore) stmt() {}

func (s *IStore) String() string {
	str := fmt.Sprintf("*%s = %s", s.Addr, s.Val)
	if s.VV != nil {
		str += fmt.Sprintf(" [%s]", s.VV)
	}
	str += annotations(nil, s.Chis)
	return str
}

// Call invokes a function. Mus/Chis carry the callee's ref/mod side effects
// on memory (per the paper §3.2: for calls, the mu and chi lists represent
// the ref and mod information of the call).
type Call struct {
	Fn   string
	Args []Operand
	Dst  *Ref // nil for void calls
	Mus  []*Mu
	Chis []*Chi
	Site int // call-site id, unique within the program

	aidx int32 // slab index +1 (see arena.go); 0 = literal-built
}

func (*Call) stmt() {}

func (c *Call) String() string {
	var args []string
	for _, a := range c.Args {
		args = append(args, a.String())
	}
	call := fmt.Sprintf("%s(%s)", c.Fn, strings.Join(args, ", "))
	var s string
	if c.Dst != nil {
		s = fmt.Sprintf("%s = %s", c.Dst, call)
	} else {
		s = call
	}
	s += annotations(c.Mus, c.Chis)
	return s
}

// Print emits its operands to the program's observable output stream. It is
// the IR's only output primitive and anchors the end-to-end correctness
// tests (interpreter output must equal VM output).
type Print struct {
	Args []Operand

	aidx int32 // slab index +1 (see arena.go); 0 = literal-built
}

func (*Print) stmt() {}

func (p *Print) String() string {
	var args []string
	for _, a := range p.Args {
		args = append(args, a.String())
	}
	return "print(" + strings.Join(args, ", ") + ")"
}

func annotations(mus []*Mu, chis []*Chi) string {
	if len(mus) == 0 && len(chis) == 0 {
		return ""
	}
	var parts []string
	for _, m := range mus {
		parts = append(parts, m.String())
	}
	for _, c := range chis {
		parts = append(parts, c.String())
	}
	return "   ;; " + strings.Join(parts, ", ")
}

// EachUse calls f on every operand read by the statement (not including
// mu lists). Unlike Uses it does not allocate, so hot analysis loops
// should prefer it.
func EachUse(s Stmt, f func(Operand)) {
	switch st := s.(type) {
	case *Assign:
		switch st.RK {
		case RHSCopy, RHSUnary, RHSLoad, RHSAlloc:
			f(st.A)
		case RHSBinary:
			f(st.A)
			f(st.B)
		}
	case *IStore:
		f(st.Addr)
		f(st.Val)
	case *Call:
		for _, a := range st.Args {
			f(a)
		}
	case *Print:
		for _, a := range st.Args {
			f(a)
		}
	}
}

// Uses returns every operand read by the statement (not including mu lists).
func Uses(s Stmt) []Operand {
	switch st := s.(type) {
	case *Assign:
		switch st.RK {
		case RHSCopy, RHSUnary, RHSLoad, RHSAlloc:
			return []Operand{st.A}
		case RHSBinary:
			return []Operand{st.A, st.B}
		}
	case *IStore:
		return []Operand{st.Addr, st.Val}
	case *Call:
		return append([]Operand(nil), st.Args...)
	case *Print:
		return append([]Operand(nil), st.Args...)
	}
	return nil
}
