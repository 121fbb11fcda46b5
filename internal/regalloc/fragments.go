package regalloc

import (
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/reuse"
)

// Fragment is one maximal live interval of a variable within a block —
// the per-block pieces a live range decomposes into (the live-set shape
// of spidir's live_set, and the granularity "Fast Copy Coalescing" §2
// identifies live ranges at). From is the index of the defining
// instruction, or -1 when the variable is live-in to the block; To is
// the index of the last instruction using it, or len(Instrs) when it is
// live-out. A dead definition yields From == To.
type Fragment struct {
	Var   ir.VarID
	Block ir.BlockID
	From  int32
	To    int32
}

// Len returns the fragment's length in instructions: 0 for a dead
// definition, 1 for a value consumed by the next instruction, and the
// block-spanning distance for live-in/live-out pieces.
func (fr Fragment) Len() int32 {
	if fr.From < 0 {
		return fr.To + 1
	}
	return fr.To - fr.From
}

// build computes liveness, the live-range fragments, the interference
// graph, and the spill costs of f, weighted by the block frequencies
// freq, in one combined backward walk, reusing sc's memory. It returns
// the maximum register pressure (simultaneously live variables) seen at
// any program point.
//
// The walk is Chaitin's: at each definition the defined variable
// interferes with everything currently live, except that a copy's source
// is exempted from interfering with its destination — the exemption that
// makes coalescing possible at all (ifgraph.Interferences defines the
// same relation with its own walk, and VerifyAllocationScratch checks
// every coloring against it, so the two cross-check each other). Fragments
// fall out for free: a variable's death point is the position where the
// backward walk first sees it, and its definition (or the block entry)
// closes the interval.
func (sc *Scratch) build(f *ir.Func, freq []float64) (maxPressure int) {
	nv := f.NumVars()
	li := liveness.ComputeScratch(f, &sc.live)

	sc.adj = reuse.Truncated(sc.adj, nv)
	triBits := nv * (nv - 1) / 2
	sc.matrix = reuse.Zeroed(sc.matrix, (triBits+63)/64)
	livePos := reuse.Slice(sc.livePos, nv)
	sc.livePos = livePos
	for i := range livePos {
		livePos[i] = -1
	}
	death := reuse.Slice(sc.death, nv)
	sc.death = death
	sc.frags = sc.frags[:0]
	sc.fragCount = reuse.Zeroed(sc.fragCount, nv)
	sc.fragLen = reuse.Zeroed(sc.fragLen, nv)

	for _, b := range f.Blocks {
		m := len(b.Instrs)
		list := sc.liveList[:0]
		it := li.LiveOutNames(b.ID)
		for v, ok := it.Next(); ok; v, ok = it.Next() {
			livePos[v] = int32(len(list))
			death[v] = int32(m)
			list = append(list, v)
		}
		if len(list) > maxPressure {
			maxPressure = len(list)
		}
		for i := m - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if in.Op == ir.OpPhi {
				panic("regalloc: Allocate requires φ-free code")
			}
			if in.Op.HasDef() {
				d := in.Def
				exempt := ir.VarID(-1)
				if in.Op == ir.OpCopy {
					exempt = in.Args[0]
				}
				for _, l := range list {
					if l != d && l != exempt {
						sc.addEdge(int32(d), int32(l))
					}
				}
				if p := livePos[d]; p >= 0 {
					sc.pushFrag(d, b.ID, int32(i), death[d])
					last := list[len(list)-1]
					list[p] = last
					livePos[last] = p
					list = list[:len(list)-1]
					livePos[d] = -1
				} else {
					// Dead definition: no uses, but the value still occupies
					// a register at the definition point (Chaitin's clobber
					// rule — the edges above keep it), as a zero-length
					// fragment.
					sc.pushFrag(d, b.ID, int32(i), int32(i))
				}
			}
			for _, a := range in.Args {
				if livePos[a] < 0 {
					livePos[a] = int32(len(list))
					death[a] = int32(i)
					list = append(list, a)
				}
			}
			if len(list) > maxPressure {
				maxPressure = len(list)
			}
		}
		// Whatever survived the walk is live-in to b.
		for _, v := range list {
			sc.pushFrag(v, b.ID, -1, death[v])
			livePos[v] = -1
		}
		sc.liveList = list[:0]
	}

	// Spill costs: uses + defs weighted by the static execution-frequency
	// estimate (loop headers ×10), replacing the cruder 10^depth weight —
	// a conditionally executed arm inside a loop now costs less than the
	// always-executed latch.
	cost := reuse.Zeroed(sc.cost, nv)
	sc.cost = cost
	appears := reuse.Zeroed(sc.appears, nv)
	sc.appears = appears
	for _, b := range f.Blocks {
		w := freq[b.ID]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op.HasDef() {
				cost[in.Def] += w
				appears[in.Def] = true
			}
			for _, a := range in.Args {
				cost[a] += w
				appears[a] = true
			}
		}
	}
	degree := reuse.Slice(sc.degree, nv)
	sc.degree = degree
	for v := range degree {
		degree[v] = int32(len(sc.adj[v]))
	}
	return maxPressure
}

// pushFrag records one fragment and folds it into the per-variable
// aggregates the spill heuristics read.
func (sc *Scratch) pushFrag(v ir.VarID, b ir.BlockID, from, to int32) {
	sc.frags = append(sc.frags, Fragment{Var: v, Block: b, From: from, To: to})
	sc.fragCount[v]++
	ln := to - from
	if from < 0 {
		ln = to + 1
	}
	sc.fragLen[v] += ln
}

// tinyRange reports whether every fragment of v is at most one
// instruction long — def-use adjacent pieces that spilling cannot
// shorten. Reload temporaries are the canonical case; excluding them
// from spill candidacy is what makes the spill loop terminate.
func (sc *Scratch) tinyRange(v ir.VarID) bool {
	return sc.fragLen[v] <= sc.fragCount[v]
}
