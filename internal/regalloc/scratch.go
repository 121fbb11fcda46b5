package regalloc

import (
	"slices"

	"fastcoalesce/internal/bitset"
	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/reuse"
)

// Scratch holds the reusable state of one allocator instance: the
// substrate analyses (dominators for spill-cost frequencies, liveness for
// interference), the interference graph (adjacency lists, deduplicated
// after the walk through one names-wide table), the backward-walk state
// that discovers live-range fragments, the simplify/select tables and
// the spill-candidate heap, the spill rewriter's tables, and the live
// set of VerifyAllocationScratch's walk. Every table is as long as the
// names, the blocks, the edges or the registers in use; none is
// quadratic in the names. The zero value is ready to use; a warm Scratch
// makes the no-spill allocation path allocation-free except for the
// returned Result, and verification allocation-free outright (both
// pinned by AllocsPerRun guards).
//
// The spilled marks use the generation-stamp idiom (ARCHITECTURE.md):
// each Allocate call bumps spillEpoch instead of clearing the table, and
// a variable counts as spilled only while its stamp equals the current
// epoch. Stale stamps from earlier calls are always smaller and never
// collide (the table is wiped on the 2^32-call wraparound).
//
// Concurrency: a Scratch belongs to one goroutine; the batch driver keeps
// one per worker. The Result returned by AllocateScratch is freshly
// allocated and independent of the Scratch.
type Scratch struct {
	dom  dom.Tree
	live liveness.Scratch
	freq dom.FreqScratch

	// li is the liveness of the current call's input, solved once in its
	// first round (it aliases live); every round reads its live-out sets
	// less the spilled names (appendLiveOut).
	li *liveness.Info

	// Interference graph over the variable namespace: adjacency lists,
	// each kept in the order its neighbours were first discovered. The
	// walk appends every edge it meets to both lists and dedupEdges then
	// keeps each neighbour's first occurrence, marking list i's entries
	// in seen with i. VerifyAllocationScratch checks the coloring
	// against ifgraph.Interferences instead, so the allocator's walk and
	// the shared definition of interference cross-check each other on
	// every verified allocation.
	adj       [][]int32
	seen      []int32
	maxDegree int // the largest adjacency list of the last build

	// Backward-walk state: the dense list of currently-live variables,
	// each variable's position in it (-1 when dead), and the instruction
	// index where the walk last saw it used (its death point).
	liveList []ir.VarID
	livePos  []int32
	death    []int32

	// Per-variable live-range fragment aggregates (count and total
	// length), recorded by the same walk.
	fragCount []int32
	fragLen   []int32

	// Spill costs and coloring state. inUse has one mark per register
	// select may assign, min(K, maxDegree+1) of them.
	cost    []float64
	appears []bool
	degree  []int32
	removed []bool
	stack   []ir.VarID
	low     []ir.VarID  // low-degree simplify worklist
	heap    []candidate // blocked-step spill candidates (heapMin)
	toSpill []ir.VarID
	colors  []int32
	inUse   []int32

	spilled    []uint32 // fc:stamp spillEpoch
	spillEpoch uint32   // fc:epoch

	// Spill rewriting (rewriteSpills): each name's index in the round's
	// spill list (-1 if not spilled), each spilled name's next temporary
	// and reload name, each block's count of new instructions, and one
	// instruction's spilled uses.
	spillOrd  []int32
	spillNext []ir.VarID
	spillRld  []string
	spillGrow []int32
	spillUses []int32

	// VerifyAllocationScratch's live set, one bit per name, and its
	// ifgraph.Visitor (kept here so handing it to the walk allocates
	// nothing).
	across bitset.Set
	clash  clashFinder
}

// beginAlloc opens one Allocate call: a new spill generation covering
// every round of the call (marks accumulate across rounds; the next call
// invalidates them all with one bump).
func (sc *Scratch) beginAlloc(nv int) {
	sc.spillEpoch++
	if sc.spillEpoch == 0 { // uint32 wraparound: ancient stamps could collide
		clear(sc.spilled[:cap(sc.spilled)])
		sc.spillEpoch = 1
	}
	sc.spilled = reuse.Slice(sc.spilled, nv)
}

// markSpilled stamps v as spilled in the current call, growing the table
// for variables created by spill rewriting. The growth MUST preserve the
// stamps already written this call — reuse.Slice drops contents when it
// reallocates, which would let color re-pick already-spilled ranges and
// make spill decisions depend on the capacity this Scratch happened to
// inherit from earlier jobs (worker-schedule-dependent output). The
// zeroed extension reads as unspilled, same as a stale epoch.
func (sc *Scratch) markSpilled(v ir.VarID) {
	if n := int(v) + 1; n > len(sc.spilled) {
		old := len(sc.spilled)
		sc.spilled = slices.Grow(sc.spilled, n-old)[:n]
		clear(sc.spilled[old:])
	}
	sc.spilled[v] = sc.spillEpoch
}

// dedupEdges keeps the first occurrence of each neighbour in every
// adjacency list. The walk appended each edge to both of its lists at
// once, so the first occurrence of j in adj[i] sits exactly where a
// deduplicating insertion would have put it, and the lists' order (and
// with it simplify's) is that of a graph built without duplicates.
//
// fc:hotpath
func (sc *Scratch) dedupEdges() {
	seen := reuse.Slice(sc.seen, len(sc.adj))
	sc.seen = seen
	for i := range seen {
		seen[i] = -1
	}
	for i, ns := range sc.adj {
		kept := ns[:0]
		for _, n := range ns {
			if seen[n] != int32(i) {
				seen[n] = int32(i)
				kept = append(kept, n)
			}
		}
		sc.adj[i] = kept
	}
}
