package regalloc

import (
	"fmt"
	"slices"

	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/reuse"
)

// This file keeps the allocator's three replaced steps as the reference
// that build, color and the round loop must reproduce exactly: edges
// deduplicated at insertion through a triangular bit matrix over every
// name, a blocked simplify step that scans every name for the best spill
// candidate, a select table of K registers, and liveness solved afresh
// in every round.

// refAllocator is the reference allocator. It shares the Scratch's
// fragment sums, spill costs, spill stamps and spill rewriter, which the
// replaced steps did not touch.
type refAllocator struct {
	Scratch
	matrix []uint64
}

// allocate is the build/color/spill loop with the reference steps.
func (ra *refAllocator) allocate(f *ir.Func, opt Options) (*Result, error) {
	if opt.K < 2 {
		return nil, fmt.Errorf("regalloc: need K >= 2, got %d", opt.K)
	}
	res := &Result{}
	ra.beginAlloc(f.NumVars())
	spillArr := ir.NoArr
	var freq []float64
	for {
		res.Rounds++
		if res.Rounds == 1 {
			ra.dom.Recompute(f)
			freq = ra.dom.EstimateFrequenciesInto(&ra.freq)
		}
		pressure := ra.build(f, freq)
		if res.Rounds == 1 {
			res.MaxPressure = pressure
		}
		toSpill := ra.color(f, opt.K)
		if len(toSpill) == 0 {
			ra.finish(f, res)
			return res, nil
		}
		if res.Rounds >= maxRounds {
			ra.finish(f, res)
			return res, fmt.Errorf("regalloc: no %d-coloring after %d rounds", opt.K, maxRounds)
		}
		if spillArr == ir.NoArr {
			spillArr = f.NewArr("spill")
		}
		for _, v := range toSpill {
			res.SpilledVars++
			res.SpillCost += ra.cost[v]
			ra.markSpilled(v)
		}
		firstTemp := f.NumVars()
		reloads, stores := ra.rewriteSpills(f, toSpill, spillArr, res.SpillSlots)
		res.SpillSlots += len(toSpill)
		res.Reloads += reloads
		res.Stores += stores
		for t := f.NumVars() - 1; t >= firstTemp; t-- {
			ra.markSpilled(ir.VarID(t))
		}
		f.ArrLens[spillArr] = res.SpillSlots
	}
}

// build solves liveness on f and walks it as Scratch.build does, with
// every edge deduplicated through the matrix as it is found.
func (ra *refAllocator) build(f *ir.Func, freq []float64) (maxPressure int) {
	nv := f.NumVars()
	li := liveness.ComputeScratch(f, &ra.live)

	ra.adj = reuse.Truncated(ra.adj, nv)
	triBits := nv * (nv - 1) / 2
	ra.matrix = reuse.Zeroed(ra.matrix, (triBits+63)/64)
	livePos := reuse.Slice(ra.livePos, nv)
	ra.livePos = livePos
	for i := range livePos {
		livePos[i] = -1
	}
	death := reuse.Slice(ra.death, nv)
	ra.death = death
	ra.fragCount = reuse.Zeroed(ra.fragCount, nv)
	ra.fragLen = reuse.Zeroed(ra.fragLen, nv)

	for _, b := range f.Blocks {
		m := len(b.Instrs)
		list := ra.liveList[:0]
		it := li.LiveOutNames(b.ID)
		for v, ok := it.Next(); ok; v, ok = it.Next() {
			livePos[v] = int32(len(list))
			death[v] = int32(m)
			list = append(list, v)
		}
		maxPressure = max(maxPressure, len(list))
		for i := m - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if in.Op.HasDef() {
				d := in.Def
				exempt := ir.VarID(-1)
				if in.Op == ir.OpCopy {
					exempt = in.Args[0]
				}
				for _, l := range list {
					if l != d && l != exempt {
						ra.addEdge(int32(d), int32(l))
					}
				}
				if p := livePos[d]; p >= 0 {
					ra.pushFrag(d, int32(i), death[d])
					last := list[len(list)-1]
					list[p] = last
					livePos[last] = p
					list = list[:len(list)-1]
					livePos[d] = -1
				} else {
					ra.pushFrag(d, int32(i), int32(i))
				}
			}
			for _, a := range in.Args {
				if livePos[a] < 0 {
					livePos[a] = int32(len(list))
					death[a] = int32(i)
					list = append(list, a)
				}
			}
			maxPressure = max(maxPressure, len(list))
		}
		for _, v := range list {
			ra.pushFrag(v, -1, death[v])
			livePos[v] = -1
		}
		ra.liveList = list[:0]
	}

	ra.spillCosts(f, freq)
	ra.degree = reuse.Slice(ra.degree, nv)
	for v := range ra.degree {
		ra.degree[v] = int32(len(ra.adj[v]))
	}
	return maxPressure
}

// addEdge records that variables i and j interfere, deduplicating
// through the triangular bit matrix.
func (ra *refAllocator) addEdge(i, j int32) {
	if i < j {
		i, j = j, i
	}
	idx := int(i)*(int(i)-1)/2 + int(j)
	w, bit := idx>>6, uint(idx)&63
	if ra.matrix[w]&(1<<bit) != 0 {
		return
	}
	ra.matrix[w] |= 1 << bit
	ra.adj[i] = append(ra.adj[i], j)
	ra.adj[j] = append(ra.adj[j], i)
}

// color is Scratch.color with a scan over every name at each blocked
// step and a select table of k registers, cleared for each node.
func (ra *refAllocator) color(f *ir.Func, k int) []ir.VarID {
	nv := f.NumVars()
	degree := ra.degree
	removed := make([]bool, nv)
	var stack, low []ir.VarID
	nodes := 0
	for v := 0; v < nv; v++ {
		if ra.appears[v] {
			nodes++
			if int(degree[v]) < k {
				low = append(low, ir.VarID(v))
			}
		} else {
			removed[v] = true
		}
	}
	remove := func(v ir.VarID) {
		removed[v] = true
		stack = append(stack, v)
		for _, n := range ra.adj[v] {
			if !removed[n] {
				degree[n]--
				if int(degree[n]) == k-1 {
					low = append(low, ir.VarID(n))
				}
			}
		}
	}
	for len(stack) < nodes {
		if len(low) > 0 {
			v := low[len(low)-1]
			low = low[:len(low)-1]
			if !removed[v] {
				remove(v)
			}
			continue
		}
		best := ir.VarID(-1)
		bestScore := 0.0
		for v := 0; v < nv; v++ {
			if removed[v] || ra.spilled[v] == ra.spillEpoch || ra.tinyRange(ir.VarID(v)) {
				continue
			}
			score := ra.cost[v] / float64(degree[v]+1)
			if best < 0 || score < bestScore {
				best, bestScore = ir.VarID(v), score
			}
		}
		if best < 0 {
			for v := 0; v < nv; v++ {
				if !removed[v] {
					remove(ir.VarID(v))
				}
			}
			continue
		}
		remove(best)
	}

	colors := reuse.Slice(ra.colors, nv)
	ra.colors = colors
	for v := range colors {
		colors[v] = -1
	}
	ra.inUse = reuse.Zeroed(ra.inUse, k)
	var toSpill []ir.VarID
	for i := len(stack) - 1; i >= 0; i-- {
		v := stack[i]
		clear(ra.inUse)
		for _, n := range ra.adj[v] {
			if c := colors[n]; c >= 0 {
				ra.inUse[c] = 1
			}
		}
		if c := slices.Index(ra.inUse, 0); c >= 0 {
			colors[v] = int32(c)
		} else {
			toSpill = append(toSpill, v)
		}
	}
	return toSpill
}

// AllocateMatrixReference is AllocateScratch with the reference steps,
// cold, for the differential tests outside this package.
func AllocateMatrixReference(f *ir.Func, opt Options) (*Result, error) {
	return (&refAllocator{}).allocate(f, opt)
}

// AllocateCheckingLiveOut is AllocateScratch that, after every spill
// rewrite, solves liveness afresh on the rewritten function and fails
// unless every block's live-out names equal the ones the next round reads
// (the first round's less the names spilled so far). It reports how many
// rewrites it checked.
func AllocateCheckingLiveOut(f *ir.Func, opt Options, sc *Scratch) (res *Result, checked int, err error) {
	var mismatch error
	var got, want []ir.VarID
	var fresh liveness.Scratch
	check := func(sc *Scratch, f *ir.Func, toSpill []ir.VarID, arr ir.ArrID, firstSlot int) (int, int) {
		reloads, stores := sc.rewriteSpills(f, toSpill, arr, firstSlot)
		checked++
		li := liveness.ComputeScratch(f, &fresh)
		for _, b := range f.Blocks {
			got = sc.appendLiveOut(got[:0], b.ID)
			want = want[:0]
			it := li.LiveOutNames(b.ID)
			for v, ok := it.Next(); ok; v, ok = it.Next() {
				want = append(want, v)
			}
			if !slices.Equal(got, want) && mismatch == nil {
				mismatch = fmt.Errorf("after rewrite %d, block b%d: carried live-out %v, fresh solve %v",
					checked, b.ID, got, want)
			}
		}
		return reloads, stores
	}
	res, err = sc.allocate(f, opt, check)
	if err == nil {
		err = mismatch
	}
	return res, checked, err
}
