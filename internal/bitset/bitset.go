// Package bitset provides a dense bit set used by the dataflow analyses
// and the interference graph (the liveness sets of §3.1's filters and the
// triangular interference matrix of §4 both build on it).
//
// Concurrency: a Set is plain memory with no internal locking — safe for
// concurrent reads, not for concurrent mutation. An Arena is a
// single-goroutine object; the batch driver keeps one per worker inside
// its Scratch so that the liveness sets of a worker's second function
// reuse the first function's backing buffer instead of allocating.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. The zero value of a Set created by New
// is empty.
type Set []uint64

// New returns a set able to hold members in [0, n).
func New(n int) Set {
	return make(Set, (n+63)/64)
}

// Has reports whether i is in the set.
func (s Set) Has(i int) bool {
	return s[i>>6]&(1<<(uint(i)&63)) != 0
}

// Add inserts i.
func (s Set) Add(i int) {
	s[i>>6] |= 1 << (uint(i) & 63)
}

// Remove deletes i.
func (s Set) Remove(i int) {
	s[i>>6] &^= 1 << (uint(i) & 63)
}

// Or sets s = s ∪ t and reports whether s changed. The sets must have the
// same capacity.
func (s Set) Or(t Set) bool {
	changed := false
	for i, w := range t {
		old := s[i]
		nw := old | w
		if nw != old {
			s[i] = nw
			changed = true
		}
	}
	return changed
}

// And sets s = s ∩ t. The sets must have the same capacity.
func (s Set) And(t Set) {
	for i, w := range t {
		s[i] &= w
	}
}

// AndNot sets s = s \ t.
func (s Set) AndNot(t Set) {
	for i, w := range t {
		s[i] &^= w
	}
}

// CopyFrom sets s = t.
func (s Set) CopyFrom(t Set) {
	copy(s, t)
}

// Clear empties the set.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Count returns the number of members.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether s and t hold the same members. Sets of different
// capacities are equal if the extra words of the longer one are zero.
func (s Set) Equal(t Set) bool {
	short, long := s, t
	if len(short) > len(long) {
		short, long = long, short
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	t := make(Set, len(s))
	copy(t, s)
	return t
}

// ForEach calls fn for every member in increasing order.
func (s Set) ForEach(fn func(i int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &= w - 1
		}
	}
}

// Members returns the elements in increasing order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Arena carves Sets out of one reusable backing buffer. Reset recycles
// every Set previously handed out, so a fixpoint analysis that allocates
// a few sets per block reaches steady-state zero allocation when run
// repeatedly over same-sized inputs.
//
// Sets handed out before a Reset must not be used afterwards: New may
// return aliasing memory. An Arena must not be shared between goroutines.
type Arena struct {
	buf  []uint64
	off  int
	used int // words handed out since the last Reset, across buffers
}

// Reset recycles the arena: every Set previously returned by New is
// invalidated and its memory becomes available again. When the last use
// outgrew the buffer, the buffer is replaced by one that holds that whole
// use, so a repeat of it allocates nothing.
func (a *Arena) Reset() {
	if a.used > len(a.buf) {
		a.buf = make([]uint64, a.used)
	}
	a.off, a.used = 0, 0
}

// New returns an empty Set able to hold members in [0, n), carved from
// the arena. When the buffer is exhausted a larger one is allocated; Sets
// already handed out keep pointing into the old buffer and stay valid
// until the next Reset.
func (a *Arena) New(n int) Set {
	words := (n + 63) / 64
	if a.off+words > len(a.buf) {
		a.buf = make([]uint64, max(2*len(a.buf), words, 1024))
		a.off = 0
	}
	s := Set(a.buf[a.off : a.off+words])
	a.off += words
	a.used += words
	s.Clear()
	return s
}
