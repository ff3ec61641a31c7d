package ir

// This file implements slab (arena) allocation for IR objects. Every
// Func carries an arena; the factory methods on Func (NewSym, NewBlock,
// NewRef, NewAssign, ...) place objects in chunked slabs instead of
// individual heap allocations, and each arena-resident object records
// its slab index in an unexported aidx field (stored as index+1 so the
// zero value means "not arena-allocated" — objects built as plain
// literals keep working and Clone falls back to per-object maps for
// them).
//
// The payoff is twofold. Construction of a function costs one heap
// allocation per slabChunk objects per kind instead of one per object —
// the compile path's dominant allocation tax. And Clone becomes a bulk
// operation: copy each slab's chunks wholesale, then remap pointer
// fields by slab index — identical indices in the copied slabs — rather
// than walking the object graph through six hash maps. Identity
// structure is preserved for free: two statements sharing one *Ref in
// the original share the copied *Ref at the same index in the clone.
//
// Concurrency: arenas are per-Func and unsynchronized. Every parallel
// phase of the pipeline (refinement, annotation, SSAPRE, codegen)
// partitions work by function, so a function's arena is only ever
// touched by one goroutine at a time — the same contract its Syms and
// Blocks slices already rely on. Program-level objects (globals) are
// not arena-backed: they are few, created by the serial frontend, and
// shared across functions.

// slabChunk is the number of objects per slab chunk. Chunks are
// allocated with exactly this capacity and never reallocated, so
// pointers into a chunk stay valid as the slab grows.
const slabChunk = 128

// slab is a chunked append-only allocator for one object kind.
type slab[T any] struct {
	chunks [][]T
	n      int32
}

// alloc places v in the slab and returns its address and index.
func (s *slab[T]) alloc(v T) (*T, int32) {
	ci := int(s.n) / slabChunk
	if ci == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, 0, slabChunk))
	}
	c := append(s.chunks[ci], v)
	s.chunks[ci] = c
	s.n++
	return &c[len(c)-1], s.n - 1
}

// at returns the object at index i.
func (s *slab[T]) at(i int32) *T {
	return &s.chunks[int(i)/slabChunk][int(i)%slabChunk]
}

// copyFrom replaces s's contents with a deep copy of o's chunks
// (fresh backing arrays, same indices).
func (s *slab[T]) copyFrom(o *slab[T]) {
	s.n = o.n
	s.chunks = make([][]T, len(o.chunks))
	for i, c := range o.chunks {
		nc := make([]T, len(c), slabChunk)
		copy(nc, c)
		s.chunks[i] = nc
	}
}

// arena is the per-Func slab set, one slab per arena-backed kind.
type arena struct {
	syms    slab[Sym]
	refs    slab[Ref]
	addrs   slab[AddrOf]
	mus     slab[Mu]
	chis    slab[Chi]
	assigns slab[Assign]
	istores slab[IStore]
	calls   slab[Call]
	prints  slab[Print]
	phis    slab[Phi]
	blocks  slab[Block]
}

// arenaOf returns the function's arena, creating it on first use (a
// Func built as a bare literal in tests has none until a factory runs).
func (f *Func) arenaOf() *arena {
	if f.arena == nil {
		f.arena = &arena{}
	}
	return f.arena
}

// NewRef allocates a versioned reference to s in f's arena.
func (f *Func) NewRef(s *Sym, ver int) *Ref {
	r, i := f.arenaOf().refs.alloc(Ref{Sym: s, Ver: ver})
	r.aidx = i + 1
	return r
}

// NewAddrOf allocates an address-of operand in f's arena.
func (f *Func) NewAddrOf(s *Sym) *AddrOf {
	a, i := f.arenaOf().addrs.alloc(AddrOf{Sym: s})
	a.aidx = i + 1
	return a
}

// NewMu allocates a copy of m in f's arena.
func (f *Func) NewMu(m Mu) *Mu {
	n, i := f.arenaOf().mus.alloc(m)
	n.aidx = i + 1
	return n
}

// NewAssign allocates a copy of a in f's arena.
func (f *Func) NewAssign(a Assign) *Assign {
	n, i := f.arenaOf().assigns.alloc(a)
	n.aidx = i + 1
	return n
}

// NewIStore allocates a copy of st in f's arena.
func (f *Func) NewIStore(st IStore) *IStore {
	n, i := f.arenaOf().istores.alloc(st)
	n.aidx = i + 1
	return n
}

// NewCall allocates a copy of c in f's arena.
func (f *Func) NewCall(c Call) *Call {
	n, i := f.arenaOf().calls.alloc(c)
	n.aidx = i + 1
	return n
}

// NewPrint allocates a copy of p in f's arena.
func (f *Func) NewPrint(p Print) *Print {
	n, i := f.arenaOf().prints.alloc(p)
	n.aidx = i + 1
	return n
}

// NewPhi allocates a copy of ph in f's arena.
func (f *Func) NewPhi(ph Phi) *Phi {
	n, i := f.arenaOf().phis.alloc(ph)
	n.aidx = i + 1
	return n
}
