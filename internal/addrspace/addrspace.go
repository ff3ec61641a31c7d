// Package addrspace is the flat, slot-addressed memory of one program
// run, shared by the reference interpreter (internal/interp) and the
// EPIC VM (internal/machine) so both engines agree on every address and
// on which addresses are valid.
//
// The layout has three regions:
//
//	[0, globSize)              globals, initialised from GlobalInit
//	[globSize, heapBase)       the call stack, growing upwards
//	[heapBase, heapBase+heap)  the bump-allocated heap
//
// where heapBase = globSize + stackSlots is fixed for the run. An
// address is valid iff it lies in [0, heapBase+heap): the whole stack
// region is addressable (a pointer to a popped frame reads whatever the
// slot last held), the heap only up to its allocated end.
//
// Memory is backed on demand. Two slices hold the low (globals + stack)
// and heap regions; each grows geometrically on the first write past its
// end, and a read past its end returns 0 — exactly what a fully
// allocated, zeroed region would return. A run therefore pays only for
// the slots it touches, not for the whole stack reservation.
package addrspace

import "math"

// minGrow is the smallest backing extension, in slots, so a run that
// writes a few stack slots at a time does not reallocate per write.
const minGrow = 512

// Space is one run's address space. The zero value is not usable; make
// one with New.
type Space struct {
	low      []uint64 // backing for [0, len(low)), len(low) <= heapBase
	heap     []uint64 // backing for [heapBase, heapBase+len(heap))
	heapBase int
	heapEnd  int // heapBase + allocated heap slots
	stackTop int // first free stack slot
}

// New lays out a run's address space: globSize global slots holding
// init (slot address → initial value; absent slots are zero), then
// stackSlots slots of stack, then an empty heap. Only the initialised
// prefix of the globals is backed up front.
func New(globSize, stackSlots int, init map[int]uint64) Space {
	n := 0
	for a := range init {
		n = max(n, a+1)
	}
	heapBase := globSize + stackSlots
	s := Space{
		low:      make([]uint64, n),
		heapBase: heapBase,
		heapEnd:  heapBase,
		stackTop: globSize,
	}
	for a, v := range init {
		s.low[a] = v
	}
	return s
}

// HeapBase is the first heap address.
func (s *Space) HeapBase() int { return s.heapBase }

// Valid reports whether a is an addressable slot. Load and Store
// require it.
func (s *Space) Valid(a int) bool { return a >= 0 && a < s.heapEnd }

// Load returns the value at valid address a. len(low) <= heapBase, so
// the first test alone selects the low region's backing.
func (s *Space) Load(a int) uint64 {
	if a < len(s.low) {
		return s.low[a]
	}
	if h := a - s.heapBase; uint(h) < uint(len(s.heap)) {
		return s.heap[h]
	}
	return 0
}

// Store writes v to valid address a. Only the low region's fast path
// is inline; heap stores and stores past the backing take storeHigh.
func (s *Space) Store(a int, v uint64) {
	if a < len(s.low) {
		s.low[a] = v
		return
	}
	s.storeHigh(a, v)
}

// storeHigh stores to a heap address or past the low backing, first
// extending the backing of a's region to cover it if needed. The low
// backing stops at heapBase; the heap backing may run past the
// allocated end, since slots there stay zero until Alloc hands them out.
func (s *Space) storeHigh(a int, v uint64) {
	if a < s.heapBase {
		s.low = grow(s.low, a+1, s.heapBase)
		s.low[a] = v
		return
	}
	h := a - s.heapBase
	if h >= len(s.heap) {
		s.heap = grow(s.heap, h+1, math.MaxInt)
	}
	s.heap[h] = v
}

// grow returns b extended with zeros to cover need slots: doubling, at
// least minGrow more, but never past limit (>= need).
func grow(b []uint64, need, limit int) []uint64 {
	nb := make([]uint64, min(max(need, 2*len(b), len(b)+minGrow), limit))
	copy(nb, b)
	return nb
}

// Alloc reserves n (>= 0) heap slots and returns the first one's
// address. The slots read as zero: the heap is never reused, and no
// store can reach past the allocated end.
func (s *Space) Alloc(n int) int {
	start := s.heapEnd
	s.heapEnd += n
	return start
}

// PushFrame reserves a zeroed stack frame of n slots and returns its
// base address; ok is false, and nothing changes, if the frame would
// run into the heap. Stack slots are reused across calls, so the part
// of the frame that is already backed is cleared.
func (s *Space) PushFrame(n int) (base int, ok bool) {
	base = s.stackTop
	if base+n > s.heapBase {
		return base, false
	}
	if base < len(s.low) {
		clear(s.low[base:min(base+n, len(s.low))])
	}
	s.stackTop = base + n
	return base, true
}

// PopFrame releases the stack frame at base and everything above it.
// The slots keep their values until a later frame reuses them.
func (s *Space) PopFrame(base int) { s.stackTop = base }
