package dom

import (
	"math/bits"

	"fastcoalesce/internal/bitset"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/reuse"
)

// Loop describes one natural loop.
type Loop struct {
	Header ir.BlockID
	Body   []ir.BlockID // includes the header
}

// LoopInfo holds the natural loops of a function and per-block nesting
// depths. The interference-graph coalescer uses Depth to coalesce copies
// out of innermost loops first (§4.3), and the static-copy tables weight
// copies by depth.
type LoopInfo struct {
	Loops []Loop
	Depth []int32 // Depth[b] = number of natural loops containing block b
}

// FindLoops detects natural loops from back edges (an edge d->h where h
// dominates d) and merges loops that share a header. Loops come in the
// order a block-order scan of the edges first meets their headers, each
// Body in increasing block order.
func (t *Tree) FindLoops() *LoopInfo {
	n := len(t.f.Blocks)
	li := &LoopInfo{Depth: make([]int32, n)}
	var sc LoopScratch
	inBody := bitset.New(n) // one loop's body, to list it in block order
	for _, h := range t.loopHeaders(make([]bool, n), nil) {
		body := t.loopBody(h, &sc)
		for _, b := range body {
			li.Depth[b]++
			inBody.Add(int(b))
		}
		loop := Loop{Header: h, Body: make([]ir.BlockID, 0, len(body))}
		for wi, w := range inBody {
			for ; w != 0; w &= w - 1 {
				loop.Body = append(loop.Body, ir.BlockID(wi<<6+bits.TrailingZeros64(w)))
			}
			inBody[wi] = 0
		}
		li.Loops = append(li.Loops, loop)
	}
	return li
}

// LoopScratch holds the reusable state of LoopDepthInto. The zero value
// is ready to use; a LoopScratch belongs to one goroutine.
//
// The body marks use the generation-stamp idiom: each loop body walk
// bumps epoch, and a block is in the body being walked only while its
// stamp equals epoch, so no per-header clear of the table is needed (the
// table is wiped on the 2^32-walk wraparound).
type LoopScratch struct {
	inBody []uint32 // fc:stamp epoch
	epoch  uint32   // fc:epoch

	stack    []ir.BlockID
	body     []ir.BlockID
	headers  []ir.BlockID
	isHeader []bool
	depth    []int32
}

// LoopDepthInto returns FindLoops().Depth, each block's number of
// enclosing natural loops, through the same walk but building neither
// loop bodies nor the loop list. The slice aliases sc and is invalidated
// by the next call with the same LoopScratch; a warm call allocates
// nothing. A nil sc allocates cold.
//
// fc:hotpath
func (t *Tree) LoopDepthInto(sc *LoopScratch) []int32 {
	if sc == nil {
		sc = &LoopScratch{}
	}
	n := len(t.f.Blocks)
	depth := reuse.Zeroed(sc.depth, n)
	isHeader := reuse.Zeroed(sc.isHeader, n)
	sc.headers = t.loopHeaders(isHeader, sc.headers[:0])
	for _, h := range sc.headers {
		for _, b := range t.loopBody(h, sc) {
			depth[b]++
		}
	}
	sc.depth, sc.isHeader = depth, isHeader
	return depth
}

// loopHeaders appends to hs every natural-loop header, a block h with a
// back edge d->h, in the order a block-order scan of the edges first
// meets it, and marks each in isHeader (zeroed, one entry per block).
func (t *Tree) loopHeaders(isHeader []bool, hs []ir.BlockID) []ir.BlockID {
	for b, blk := range t.f.Blocks {
		for _, s := range blk.Succs {
			if !isHeader[s] && t.Dominates(s, ir.BlockID(b)) {
				isHeader[s] = true
				hs = append(hs, s)
			}
		}
	}
	return hs
}

// loopBody returns the natural loop of header h, merged over all of h's
// back edges: h and every block that reaches a back-edge source (a
// predecessor h dominates) without passing through h, in discovery
// order. The slice aliases sc and is valid until the next call.
func (t *Tree) loopBody(h ir.BlockID, sc *LoopScratch) []ir.BlockID {
	sc.epoch++
	if sc.epoch == 0 { // uint32 wraparound: ancient stamps could collide
		clear(sc.inBody[:cap(sc.inBody)])
		sc.epoch = 1
	}
	epoch := sc.epoch
	inBody := reuse.Slice(sc.inBody, len(t.f.Blocks))
	inBody[h] = epoch
	body := append(sc.body[:0], h)
	stack := sc.stack[:0]
	for _, d := range t.f.Blocks[h].Preds {
		if inBody[d] != epoch && t.Dominates(h, d) {
			inBody[d] = epoch
			body = append(body, d)
			stack = append(stack, d)
		}
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range t.f.Blocks[b].Preds {
			if inBody[p] != epoch {
				inBody[p] = epoch
				body = append(body, p)
				stack = append(stack, p)
			}
		}
	}
	sc.inBody, sc.body, sc.stack = inBody, body, stack
	return body
}

// FreqScratch holds the reusable state of EstimateFrequenciesInto. The
// zero value is ready to use; a FreqScratch belongs to one goroutine.
type FreqScratch struct {
	isHeader []bool
	headers  []ir.BlockID
	freq     []float64
}

// EstimateFrequenciesInto produces a static execution-frequency estimate
// per block: the entry runs once, a conditional branch splits its
// frequency evenly across successors, and every natural-loop header
// multiplies the incoming frequency by 10 (the classic "10 iterations per
// loop" guess behind Chaitin-style spill costs). Back edges are ignored
// during propagation, so the computation is a single reverse-postorder
// sweep, and only the loop headers are needed, not the loop bodies
// FindLoops discovers.
//
// Unlike raw loop depth, this distinguishes a conditionally executed arm
// inside a loop from the always-executed latch — which is what copy-
// placement decisions need.
//
// The returned slice aliases sc and is invalidated by the next call with
// the same FreqScratch; a warm call allocates nothing.
func (t *Tree) EstimateFrequenciesInto(sc *FreqScratch) []float64 {
	f := t.f
	n := len(f.Blocks)
	isHeader := reuse.Zeroed(sc.isHeader, n)
	sc.headers = t.loopHeaders(isHeader, sc.headers[:0])
	sc.isHeader = isHeader
	freq := reuse.Zeroed(sc.freq, n)
	sc.freq = freq
	freq[f.Entry] = 1
	for _, b := range t.RPO {
		if b == f.Entry {
			continue
		}
		sum := 0.0
		for _, p := range f.Blocks[b].Preds {
			if t.RPONum[p] < t.RPONum[b] { // forward edge
				sum += freq[p] / float64(len(f.Blocks[p].Succs))
			}
		}
		if isHeader[b] {
			if sum == 0 {
				sum = 1 // irreducible entry: degrade gracefully
			}
			sum *= 10
		}
		if sum < 1e-9 {
			sum = 1e-9
		}
		freq[b] = sum
	}
	return freq
}
