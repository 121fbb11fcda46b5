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
// interference), the interference graph (triangular dedup bit matrix plus
// adjacency lists), the backward-walk state that discovers live-range
// fragments, the simplify/select tables, the spill rewriter's tables,
// and the live set of VerifyAllocationScratch's walk. The zero value is
// ready to use; a warm Scratch makes the no-spill allocation path
// allocation-free except for the returned Result, and verification
// allocation-free outright (both pinned by AllocsPerRun guards).
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

	// Interference graph over the variable namespace: adjacency lists
	// plus a triangular bit matrix that dedups edge insertion, exactly
	// the §4 representation ifgraph uses. VerifyAllocationScratch checks
	// the coloring against ifgraph.Interferences instead, so the
	// allocator's walk and the shared definition of interference
	// cross-check each other on every verified allocation.
	adj    [][]int32
	matrix []uint64

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

	// Spill costs and coloring state.
	cost    []float64
	appears []bool
	degree  []int32
	removed []bool
	stack   []ir.VarID
	low     []ir.VarID // low-degree simplify worklist
	toSpill []ir.VarID
	colors  []int32
	inUse   []bool

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

// addEdge records that variables i and j interfere, deduplicating
// through the triangular bit matrix.
func (sc *Scratch) addEdge(i, j int32) {
	if i == j {
		return
	}
	if i < j {
		i, j = j, i
	}
	idx := int(i)*(int(i)-1)/2 + int(j)
	w, bit := idx>>6, uint(idx)&63
	if sc.matrix[w]&(1<<bit) != 0 {
		return
	}
	sc.matrix[w] |= 1 << bit
	sc.adj[i] = append(sc.adj[i], j)
	sc.adj[j] = append(sc.adj[j], i)
}
