package reuse

import "unsafe"

// Slab carves exact-size slices, and single elements, out of chunks it
// keeps: the storage of a structure built from many small pieces that die
// together, such as a compile's AST or the lists of a function under
// construction. Every carved slice has its capacity capped at its length,
// so appending to one reallocates it instead of overwriting a neighbour.
// Carved memory is zeroed.
//
// Reset makes the chunks available again, so the caller must no longer
// use anything carved before it; it keeps only the leading chunks of up
// to slabKeep bytes. The zero value is ready to use; a Slab belongs to
// one goroutine.
type Slab[T any] struct {
	chunks [][]T
	ci     int // the chunk being carved
	off    int // its first uncarved element
}

// slabFirst and slabMax bound the size in bytes of a Slab's chunks: the
// first takes slabFirst, and each later one twice its predecessor, up to
// slabMax, or the request, if larger. The cap keeps a large structure's
// unused tail to one chunk's worth.
const (
	slabFirst = 256
	slabMax   = 16 << 10
)

// slabKeep bounds the memory a Slab keeps across Reset: a structure that
// needed more lets the rest go, instead of holding it until the next
// one as large comes along.
const slabKeep = 16 << 10

// Take returns n consecutive zeroed elements with capacity n.
func (s *Slab[T]) Take(n int) []T {
	for s.ci < len(s.chunks) {
		if c := s.chunks[s.ci]; s.off+n <= len(c) {
			s.off += n
			return c[s.off-n : s.off : s.off]
		}
		s.ci++
		s.off = 0
	}
	var zero T
	elem := int(unsafe.Sizeof(zero))
	size := max(1, slabFirst/elem)
	if k := len(s.chunks); k > 0 {
		size = max(size, min(2*len(s.chunks[k-1]), slabMax/elem))
	}
	s.chunks = append(s.chunks, make([]T, max(size, n)))
	s.ci, s.off = len(s.chunks)-1, n
	return s.chunks[s.ci][:n:n]
}

// New returns one zeroed element.
func (s *Slab[T]) New() *T { return &s.Take(1)[0] }

// Reset drops the chunks past the first slabKeep bytes, zeroes what was
// carved from the others since the last Reset, so the slab keeps no
// pointer into what was built from it, and makes them available again.
func (s *Slab[T]) Reset() {
	var zero T
	elem := int(unsafe.Sizeof(zero))
	keep, bytes := 0, 0
	for keep < len(s.chunks) && bytes+len(s.chunks[keep])*elem <= slabKeep {
		bytes += len(s.chunks[keep]) * elem
		keep++
	}
	for i := 0; i < min(s.ci, keep); i++ {
		clear(s.chunks[i])
	}
	if s.ci < keep {
		clear(s.chunks[s.ci][:s.off])
	}
	clear(s.chunks[keep:])
	s.chunks = s.chunks[:keep]
	s.ci, s.off = 0, 0
}
