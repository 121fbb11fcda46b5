package regalloc

import (
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/reuse"
)

// build computes the live-range fragments, the interference graph, and
// the spill costs of f, weighted by the block frequencies freq, in one
// combined backward walk from the live-out sets appendLiveOut gives,
// reusing sc's memory. It returns the maximum register pressure
// (simultaneously live variables) seen at any program point.
//
// The walk is Chaitin's: at each definition the defined variable
// interferes with everything currently live, except that a copy's source
// is exempted from interfering with its destination — the exemption that
// makes coalescing possible at all (ifgraph.Interferences defines the
// same relation with its own walk, and VerifyAllocationScratch checks
// every coloring against it, so the two cross-check each other). Fragments
// fall out for free: a variable's death point is the position where the
// backward walk first sees it, and its definition (or the block entry)
// closes the interval. The walk appends every edge it meets to both
// endpoints' lists, repeats included, and dedupEdges removes the repeats
// afterwards, so the graph costs memory in proportion to the edges the
// walk visits rather than to the square of the names.
//
// fc:hotpath
func (sc *Scratch) build(f *ir.Func, freq []float64) (maxPressure int) {
	nv := f.NumVars()
	adj := reuse.Truncated(sc.adj, nv)
	sc.adj = adj
	livePos := reuse.Slice(sc.livePos, nv)
	sc.livePos = livePos
	for i := range livePos {
		livePos[i] = -1
	}
	death := reuse.Slice(sc.death, nv)
	sc.death = death
	sc.fragCount = reuse.Zeroed(sc.fragCount, nv)
	sc.fragLen = reuse.Zeroed(sc.fragLen, nv)

	for _, b := range f.Blocks {
		m := len(b.Instrs)
		list := sc.appendLiveOut(sc.liveList[:0], b.ID)
		for i, v := range list {
			livePos[v] = int32(i)
			death[v] = int32(m)
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
						adj[d] = append(adj[d], int32(l))
						adj[l] = append(adj[l], int32(d))
					}
				}
				if p := livePos[d]; p >= 0 {
					sc.pushFrag(d, int32(i), death[d])
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
					sc.pushFrag(d, int32(i), int32(i))
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
			sc.pushFrag(v, -1, death[v])
			livePos[v] = -1
		}
		sc.liveList = list[:0]
	}

	sc.dedupEdges()
	sc.spillCosts(f, freq)
	degree := reuse.Slice(sc.degree, nv)
	sc.degree = degree
	sc.maxDegree = 0
	for v := range degree {
		degree[v] = int32(len(adj[v]))
		sc.maxDegree = max(sc.maxDegree, len(adj[v]))
	}
	return maxPressure
}

// appendLiveOut appends to dst the names live out of block b in the
// current round, in VarID order: the first round's live-out names less
// every name spilled since. Under spill-everywhere a spilled name is used
// only by the stores that follow its definitions, and every temporary the
// rewrite adds is defined and used inside one block, so spill code
// removes exactly the spilled names from the block-boundary live sets and
// adds none: a fresh solve of the rewritten function gives the same lists.
func (sc *Scratch) appendLiveOut(dst []ir.VarID, b ir.BlockID) []ir.VarID {
	epoch := sc.spillEpoch
	it := sc.li.LiveOutNames(b)
	for v, ok := it.Next(); ok; v, ok = it.Next() {
		if sc.spilled[v] != epoch {
			dst = append(dst, v)
		}
	}
	return dst
}

// spillCosts fills each name's spill cost, its uses and defs weighted by
// the static execution-frequency estimate (loop headers ×10, so a
// conditionally executed arm inside a loop costs less than the
// always-executed latch), and marks the names f mentions.
func (sc *Scratch) spillCosts(f *ir.Func, freq []float64) {
	nv := f.NumVars()
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
}

// pushFrag folds one fragment of v into the per-variable aggregates the
// spill heuristics read. A fragment is one maximal live interval of v
// within a block: from is the index of the defining instruction, or -1
// when v is live-in to the block; to is the index of the last
// instruction using it, or len(Instrs) when it is live-out. A dead
// definition yields from == to, a fragment of length 0.
func (sc *Scratch) pushFrag(v ir.VarID, from, to int32) {
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
