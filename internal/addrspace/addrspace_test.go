package addrspace

import "testing"

func TestLayoutAndValidity(t *testing.T) {
	s := New(8, 100, map[int]uint64{2: 7})
	if s.HeapBase() != 108 {
		t.Fatalf("HeapBase = %d, want 108", s.HeapBase())
	}
	if got := s.Load(2); got != 7 {
		t.Errorf("initialised global = %d, want 7", got)
	}
	for _, a := range []int{0, 7, 8, 107} {
		if !s.Valid(a) {
			t.Errorf("Valid(%d) = false before any allocation", a)
		}
		if got := s.Load(a); a != 2 && got != 0 {
			t.Errorf("Load(%d) = %d, want 0", a, got)
		}
	}
	for _, a := range []int{-1, 108, 1 << 30} {
		if s.Valid(a) {
			t.Errorf("Valid(%d) = true with an empty heap", a)
		}
	}
	p := s.Alloc(3)
	if p != 108 {
		t.Fatalf("first Alloc = %d, want the heap base 108", p)
	}
	if !s.Valid(110) || s.Valid(111) {
		t.Errorf("heap validity: Valid(110)=%t Valid(111)=%t, want true false", s.Valid(110), s.Valid(111))
	}
	if q := s.Alloc(0); q != 111 || s.Valid(111) {
		t.Errorf("zero-size Alloc = %d (Valid %t), want 111 and no new slot", q, s.Valid(111))
	}
}

func TestStoresGrowTheBacking(t *testing.T) {
	s := New(4, 1<<20, nil)
	top := s.HeapBase() - 1
	s.Store(top, 5) // the far end of the stack region
	if got := s.Load(top); got != 5 {
		t.Errorf("Load(stack top) = %d, want 5", got)
	}
	if got := s.Load(top - 1); got != 0 {
		t.Errorf("unwritten stack slot = %d, want 0", got)
	}
	big := s.Alloc(10000)
	s.Alloc(2)
	for i := 0; i < 10002; i += 97 {
		s.Store(big+i, uint64(i)+1)
	}
	for i := 0; i < 10002; i++ {
		want := uint64(0)
		if i%97 == 0 {
			want = uint64(i) + 1
		}
		if got := s.Load(big + i); got != want {
			t.Fatalf("heap slot %d = %d, want %d", i, got, want)
		}
	}
	// the backing may run past the allocated end: those slots stay
	// invalid until allocated, and read zero when they are
	end := big + 10002
	if s.Valid(end) {
		t.Errorf("Valid(%d) = true past the allocated end", end)
	}
	if next := s.Alloc(4); next != end || s.Load(next+3) != 0 || !s.Valid(next+3) {
		t.Errorf("Alloc(4) = %d: want %d, valid and zero", next, end)
	}
}

func TestFrames(t *testing.T) {
	s := New(2, 10, nil)
	a, ok := s.PushFrame(4)
	if !ok || a != 2 {
		t.Fatalf("PushFrame(4) = %d, %t; want 2, true", a, ok)
	}
	s.Store(a+1, 9)
	s.PopFrame(a)
	if got := s.Load(a + 1); got != 9 {
		t.Errorf("popped frame slot = %d, want the stale 9", got)
	}
	b, ok := s.PushFrame(8)
	if !ok || b != a {
		t.Fatalf("PushFrame(8) = %d, %t; want %d, true", b, ok, a)
	}
	if got := s.Load(b + 1); got != 0 {
		t.Errorf("reused frame slot = %d, want 0 (frames start zeroed)", got)
	}
	if _, ok := s.PushFrame(3); ok {
		t.Error("PushFrame past the stack region succeeded")
	}
	if c, ok := s.PushFrame(0); !ok || c != 10 {
		t.Errorf("empty frame at the stack top = %d, %t; want 10, true", c, ok)
	}
}
