package bitset

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(200)
	if !s.Empty() {
		t.Fatal("new set not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Has(%d) false after Add", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Remove(64)
	if s.Has(64) {
		t.Fatal("Has(64) true after Remove")
	}
	if s.Count() != 7 {
		t.Fatalf("Count = %d, want 7", s.Count())
	}
	got := s.Members()
	want := []int{0, 1, 63, 65, 127, 128, 199}
	if len(got) != len(want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
	s.Clear()
	if !s.Empty() {
		t.Fatal("set not empty after Clear")
	}
}

func TestOrAndNot(t *testing.T) {
	a, b := New(130), New(130)
	a.Add(3)
	b.Add(100)
	b.Add(3)
	if changed := a.Or(b); !changed {
		t.Fatal("Or reported no change")
	}
	if !a.Has(100) || !a.Has(3) {
		t.Fatal("Or missed members")
	}
	if changed := a.Or(b); changed {
		t.Fatal("second Or reported change")
	}
	a.AndNot(b)
	if a.Has(3) || a.Has(100) {
		t.Fatal("AndNot left members")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(64)
	a.Add(10)
	b := a.Clone()
	b.Add(20)
	if a.Has(20) {
		t.Fatal("Clone shares storage")
	}
	if !b.Has(10) {
		t.Fatal("Clone lost members")
	}
}

// Property: Add then Has holds, membership matches a reference map.
func TestQuickMembership(t *testing.T) {
	f := func(elems []uint16) bool {
		s := New(1 << 16)
		ref := map[int]bool{}
		for _, e := range elems {
			s.Add(int(e))
			ref[int(e)] = true
		}
		if s.Count() != len(ref) {
			return false
		}
		ok := true
		s.ForEach(func(i int) {
			if !ref[i] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Or is idempotent and commutative w.r.t. membership.
func TestQuickOr(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := New(256), New(256)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		u1 := a.Clone()
		u1.Or(b)
		u2 := b.Clone()
		u2.Or(a)
		for i := 0; i < 256; i++ {
			if u1.Has(i) != u2.Has(i) {
				return false
			}
			if u1.Has(i) != (a.Has(i) || b.Has(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEqual(t *testing.T) {
	a, b := New(128), New(128)
	for _, x := range []int{3, 64, 127} {
		a.Add(x)
		b.Add(x)
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("identical sets compare unequal")
	}
	b.Add(5)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("differing sets compare equal")
	}
	// Different capacities: equal when the tail is zero.
	c := New(256)
	c.Add(3)
	c.Add(64)
	c.Add(127)
	if !a.Equal(c) || !c.Equal(a) {
		t.Fatal("padded equal sets compare unequal")
	}
	c.Add(200)
	if a.Equal(c) || c.Equal(a) {
		t.Fatal("tail member ignored")
	}
}

// TestArenaSecondUseAllocatesNothing pins the arena's growth: a cold
// arena that overflows its buffer during one use gets, at the next Reset,
// one buffer that holds the whole use, so the same sequence of New calls
// again allocates nothing — and its Sets still do not alias.
func TestArenaSecondUseAllocatesNothing(t *testing.T) {
	var a Arena
	// 5 100 words: the buffer grows to 1 024, 2 048 and 4 096 words,
	// and the last holds only the tail of the use.
	for i := 0; i < 200; i++ {
		a.New(64 * (i%50 + 1))
	}
	a.Reset()
	sets := make([]Set, 0, 200)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < 200; i++ {
		sets = append(sets, a.New(64*(i%50+1)))
	}
	runtime.ReadMemStats(&ms1)
	if n := ms1.Mallocs - ms0.Mallocs; n != 0 {
		t.Errorf("second use allocated %d objects, want 0", n)
	}
	for i, s := range sets {
		s.Add(i % (64 * (i%50 + 1)))
	}
	for i, s := range sets {
		if s.Count() != 1 || !s.Has(i%(64*(i%50+1))) {
			t.Fatalf("set %d aliases another: %d members", i, s.Count())
		}
	}
}
