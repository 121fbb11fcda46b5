// Package regalloc implements a Chaitin/Briggs graph-coloring register
// allocator — the application the paper positions its coalescer inside
// (§1, §5): live ranges come from SSA destruction (any of the four
// pipelines), then the allocator colors the interference graph with K
// colors, spilling optimistically à la Briggs until the graph colors.
//
// The allocator is scratch-backed: interference construction, live-range
// fragment discovery, and spill-cost estimation run in one combined
// backward walk over reusable dense tables (see Scratch), so the batch
// driver's warm steady state allocates nothing beyond the Result. Spill
// candidates are chosen by Chaitin's cost/degree metric with costs
// weighted by the static execution-frequency estimate
// (dom.EstimateFrequenciesInto), the spill-everywhere model whose
// cost-driven variants Bouchez/Darte/Rastello analyze.
//
// Spilled values live in a dedicated function-local spill array, so the
// allocated code remains executable and is verified by the interpreter
// (bench.CheckAgainstOriginal; the -pressure sweep gates on it).
package regalloc

import (
	"fmt"

	"fastcoalesce/internal/bitset"
	"fastcoalesce/internal/ifgraph"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/obs"
	"fastcoalesce/internal/reuse"
)

// Options configures Allocate.
type Options struct {
	K int // number of registers (colors); must be >= 2

	// Obs, when non-nil, records regalloc-build / regalloc-color /
	// regalloc-spill spans per round. A nil tracer is a free no-op.
	Obs *obs.Tracer
}

// maxRounds caps the build/spill iteration. It is a safety net: reload
// temporaries are structurally unspillable, which already guarantees
// termination.
const maxRounds = 32

// Result describes an allocation. On success every field is final; on
// maxRounds exhaustion Allocate returns the partial Result alongside the
// error — the round, spill, and pressure counts still describe the work
// done, and Colors holds the last attempt (failed ranges stay -1).
type Result struct {
	// Colors maps each variable to a register in [0, K), or -1 for
	// variables that do not appear in the final code.
	Colors []int
	// SpilledVars counts live ranges sent to memory across all rounds.
	SpilledVars int
	// Reloads and Stores count the spill instructions inserted: one
	// reload (aload) before each use of a spilled range, one store
	// (astore) after each definition.
	Reloads int
	Stores  int
	// Rounds is the number of build/color attempts.
	Rounds int
	// SpillSlots is the size of the spill area.
	SpillSlots int
	// ColorsUsed is the number of distinct registers the coloring uses.
	ColorsUsed int
	// MaxPressure is the maximum register pressure (simultaneously live
	// variables) of the input, measured on the first round — before any
	// spill code changed the code.
	MaxPressure int
	// SpillCost is the total frequency-weighted cost of the spilled
	// ranges (the objective the candidate heuristic minimizes).
	SpillCost float64
}

// Allocate colors f's live ranges with opt.K registers, rewriting f with
// spill code as needed. f must be φ-free (run a destruction pass first).
// It is AllocateScratch with cold, private scratch state.
func Allocate(f *ir.Func, opt Options) (*Result, error) {
	return AllocateScratch(f, opt, &Scratch{})
}

// AllocateScratch is Allocate reusing sc's memory across calls. A nil sc
// is allowed and allocates cold.
func AllocateScratch(f *ir.Func, opt Options, sc *Scratch) (*Result, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	return sc.allocate(f, opt, (*Scratch).rewriteSpills)
}

// spillRewriter rewrites one round's spilled names; see rewriteSpills,
// the only one outside the tests.
type spillRewriter func(sc *Scratch, f *ir.Func, toSpill []ir.VarID, arr ir.ArrID, firstSlot int) (reloads, stores int)

// allocate is the build/color/spill loop of AllocateScratch, with the
// spill rewriter as a parameter so that the tests can drive the same loop
// with the per-name reference rewriter.
func (sc *Scratch) allocate(f *ir.Func, opt Options, rewrite spillRewriter) (*Result, error) {
	if opt.K < 2 {
		return nil, fmt.Errorf("regalloc: need K >= 2, got %d", opt.K)
	}
	tr := opt.Obs
	res := &Result{}
	sc.beginAlloc(f.NumVars())
	spillArr := ir.NoArr
	var freq []float64

	for {
		res.Rounds++
		tr.Begin(obs.PhaseRegallocBuild)
		if res.Rounds == 1 {
			// Spill code adds instructions and names but never blocks or
			// edges, so one frequency estimate serves every round; and it
			// only takes the spilled names out of the block-boundary live
			// sets, so one liveness solve does too (appendLiveOut).
			sc.dom.Recompute(f)
			freq = sc.dom.EstimateFrequenciesInto(&sc.freq)
			sc.li = liveness.ComputeScratch(f, &sc.live)
		}
		pressure := sc.build(f, freq)
		tr.End(obs.PhaseRegallocBuild)
		if res.Rounds == 1 {
			res.MaxPressure = pressure
		}

		tr.Begin(obs.PhaseRegallocColor)
		toSpill := sc.color(f, opt.K)
		tr.End(obs.PhaseRegallocColor)
		if len(toSpill) == 0 {
			sc.finish(f, res)
			return res, nil
		}
		if res.Rounds >= maxRounds {
			// Return the partial result instead of discarding the stats:
			// the caller still learns how many rounds ran, what was
			// spilled, and which ranges the last attempt failed on.
			sc.finish(f, res)
			return res, fmt.Errorf("regalloc: no %d-coloring after %d rounds", opt.K, maxRounds)
		}

		tr.Begin(obs.PhaseRegallocSpill)
		if spillArr == ir.NoArr {
			spillArr = f.NewArr("spill")
		}
		for _, v := range toSpill {
			res.SpilledVars++
			res.SpillCost += sc.cost[v]
			sc.markSpilled(v)
		}
		firstTemp := f.NumVars()
		reloads, stores := rewrite(sc, f, toSpill, spillArr, res.SpillSlots)
		res.SpillSlots += len(toSpill)
		res.Reloads += reloads
		res.Stores += stores
		// Reload temporaries are unspillable (spilling a one-instr range
		// cannot reduce pressure and would not terminate); the tinyRange
		// check catches them structurally and the stamp keeps the
		// candidate scan cheap. Marking the highest first grows the
		// table once.
		for t := f.NumVars() - 1; t >= firstTemp; t-- {
			sc.markSpilled(ir.VarID(t))
		}
		f.ArrLens[spillArr] = res.SpillSlots
		tr.End(obs.PhaseRegallocSpill)
	}
}

// color runs Briggs-style optimistic simplify/select over the graph the
// last build produced, filling sc.colors and returning the live ranges
// select failed to color (empty on success). Simplify maintains a
// low-degree worklist instead of rescanning all nodes per pass; when the
// worklist runs dry it optimistically pushes the candidate with the
// lowest cost/(degree+1), the lowest VarID among equals, skipping
// already-spilled and tiny ranges. The candidates come from a heap built
// at the first blocked step (heapMin), not from a pass over every name.
//
// fc:hotpath
func (sc *Scratch) color(f *ir.Func, k int) []ir.VarID {
	nv := f.NumVars()
	removed := reuse.Zeroed(sc.removed, nv)
	sc.removed = removed
	sc.stack = sc.stack[:0]
	sc.low = sc.low[:0]
	nodes := 0
	for v := 0; v < nv; v++ {
		if sc.appears[v] {
			nodes++
			if int(sc.degree[v]) < k {
				sc.low = append(sc.low, ir.VarID(v))
			}
		} else {
			removed[v] = true
		}
	}
	blocked := false
	for len(sc.stack) < nodes {
		if n := len(sc.low); n > 0 {
			v := sc.low[n-1]
			sc.low = sc.low[:n-1]
			if !removed[v] {
				sc.remove(v, k)
			}
			continue
		}
		// Blocked: push the best spill candidate optimistically (Briggs —
		// it may still color if its neighbors end up sharing registers).
		if !blocked {
			sc.heapInit(nv)
			blocked = true
		}
		best := sc.heapMin()
		if best < 0 {
			// Everything left is already-spilled tiny ranges; push them
			// all and hope optimism colors them (their degree is small).
			for v := 0; v < nv; v++ {
				if !removed[v] {
					sc.remove(ir.VarID(v), k)
				}
			}
			continue
		}
		sc.remove(best, k)
	}

	// Select: pop in reverse, assigning the lowest register not used by
	// an already-colored neighbor; failures become the next spill set. A
	// node has at most maxDegree neighbors, so one of the registers
	// [0, maxDegree] is always free and no higher one is ever assigned.
	// The node at stack position i marks its neighbors' registers in
	// inUse with i+1, so no node clears what the last one marked.
	colors := reuse.Slice(sc.colors, nv)
	sc.colors = colors
	for v := range colors {
		colors[v] = -1
	}
	inUse := reuse.Zeroed(sc.inUse, min(k, sc.maxDegree+1))
	sc.inUse = inUse
	toSpill := sc.toSpill[:0]
	for i := len(sc.stack) - 1; i >= 0; i-- {
		v, mark := sc.stack[i], int32(i+1)
		for _, n := range sc.adj[v] {
			if c := colors[n]; c >= 0 {
				inUse[c] = mark
			}
		}
		assigned := int32(-1)
		for c, m := range inUse {
			if m != mark {
				assigned = int32(c)
				break
			}
		}
		if assigned < 0 {
			toSpill = append(toSpill, v)
			continue
		}
		colors[v] = assigned
	}
	sc.toSpill = toSpill
	return toSpill
}

// remove takes v out of the graph onto the select stack, lowering its
// remaining neighbors' degrees and queueing each one that drops below k.
func (sc *Scratch) remove(v ir.VarID, k int) {
	sc.removed[v] = true
	sc.stack = append(sc.stack, v)
	for _, n := range sc.adj[v] {
		if !sc.removed[n] {
			sc.degree[n]--
			if int(sc.degree[n]) == k-1 {
				sc.low = append(sc.low, ir.VarID(n))
			}
		}
	}
}

// candidate is one spill candidate in color's heap: v with the score
// cost/(degree+1) computed at degree deg.
type candidate struct {
	score float64
	v     ir.VarID
	deg   int32
}

// before orders the heap by score, then by VarID.
func (a candidate) before(b candidate) bool {
	return a.score < b.score || (a.score == b.score && a.v < b.v)
}

// heapInit fills the candidate heap with every name that is not removed,
// not spilled this call and not a tiny range, each scored at its current
// degree.
//
// fc:hotpath
func (sc *Scratch) heapInit(nv int) {
	h := sc.heap[:0]
	epoch := sc.spillEpoch
	for v := 0; v < nv; v++ {
		if sc.removed[v] || sc.spilled[v] == epoch || sc.tinyRange(ir.VarID(v)) {
			continue
		}
		d := sc.degree[v]
		h = append(h, candidate{score: sc.cost[v] / float64(d+1), v: ir.VarID(v), deg: d})
	}
	sc.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		sc.siftDown(i)
	}
}

// heapMin returns the candidate a scan over every remaining candidate
// would pick — the lowest cost/(degree+1), the lowest VarID among equals
// — or -1 when none remains. The heap is lazy: removed names leave only
// when they reach the top, and a top whose degree has fallen since it was
// scored is rescored and sifted down. Degrees only fall, so scores only
// rise: every entry's key is at most its current score, and the first
// top that needs no rescoring is the minimum.
//
// fc:hotpath
func (sc *Scratch) heapMin() ir.VarID {
	for len(sc.heap) > 0 {
		top := &sc.heap[0]
		switch d := sc.degree[top.v]; {
		case sc.removed[top.v]:
			last := len(sc.heap) - 1
			sc.heap[0] = sc.heap[last]
			sc.heap = sc.heap[:last]
		case d != top.deg:
			top.score, top.deg = sc.cost[top.v]/float64(d+1), d
		default:
			return top.v
		}
		sc.siftDown(0)
	}
	return -1
}

// siftDown restores the heap order below position i.
//
// fc:hotpath
func (sc *Scratch) siftDown(i int) {
	h := sc.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// finish copies the scratch coloring into the Result and fills the
// derived statistics.
func (sc *Scratch) finish(f *ir.Func, res *Result) {
	nv := f.NumVars()
	colors := make([]int, nv)
	clear(sc.inUse)
	used := 0
	for v := range colors {
		c := int(sc.colors[v])
		colors[v] = c
		if c >= 0 && sc.inUse[c] == 0 {
			sc.inUse[c] = 1
			used++
		}
	}
	res.Colors = colors
	res.ColorsUsed = used
}

// VerifyAllocation checks that colors is a proper coloring of f's live
// ranges with at most k registers. It is VerifyAllocationScratch with
// cold, private scratch state.
func VerifyAllocation(f *ir.Func, colors []int, k int) error {
	return VerifyAllocationScratch(f, colors, k, &Scratch{})
}

// VerifyAllocationScratch checks that colors is a proper coloring of f's
// live ranges with at most k registers: every name f mentions has a
// color in [0, k), and no two interfering names share one. Interference
// comes from ifgraph.Interferences over liveness computed afresh on f,
// not from the allocator's own combined walk, so every verified
// allocation cross-checks that walk. Each definition's color is checked
// against the names live across it as the walk visits them; no graph is
// built. The check reuses sc's liveness scratch, so it must not run while
// an allocation on sc is in progress; with a warm sc a valid coloring
// costs no allocation. A nil sc is allowed and allocates cold.
func VerifyAllocationScratch(f *ir.Func, colors []int, k int, sc *Scratch) error {
	if sc == nil {
		sc = &Scratch{}
	}
	nv := f.NumVars()
	if len(colors) < nv {
		return fmt.Errorf("regalloc: %d colors for %d variables", len(colors), nv)
	}
	for v, c := range colors[:nv] {
		if c >= k {
			return fmt.Errorf("regalloc: %s got color %d >= K=%d", f.VarName(ir.VarID(v)), c, k)
		}
	}
	// Every appearing variable must have a color; the walk below then
	// only meets colored names.
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op.HasDef() && colors[in.Def] < 0 {
				return fmt.Errorf("regalloc: %s defined but uncolored", f.VarName(in.Def))
			}
			for _, a := range in.Args {
				if colors[a] < 0 {
					return fmt.Errorf("regalloc: %s used but uncolored", f.VarName(a))
				}
			}
		}
	}
	li := liveness.ComputeScratch(f, &sc.live)
	sc.across = reuse.Slice(sc.across, (nv+63)/64)
	cf := &sc.clash
	*cf = clashFinder{colors: colors, clash: [2]ir.VarID{ir.NoVar, ir.NoVar}}
	ifgraph.Interferences(f, li, nil, sc.across, cf)
	clash := cf.clash
	cf.colors = nil // the Scratch must not keep the caller's colors alive
	if clash[0] != ir.NoVar {
		return fmt.Errorf("regalloc: interfering %s and %s share register r%d",
			f.VarName(clash[0]), f.VarName(clash[1]), colors[clash[0]])
	}
	return nil
}

// clashFinder is VerifyAllocationScratch's walk visitor: it records the
// first definition that shares its color with a name live across it.
type clashFinder struct {
	colors []int
	clash  [2]ir.VarID
}

func (cf *clashFinder) Visit(d int32, across bitset.Set) {
	if cf.clash[0] != ir.NoVar {
		return
	}
	c := cf.colors[d]
	across.ForEach(func(l int) {
		if cf.colors[l] == c && cf.clash[0] == ir.NoVar {
			cf.clash = [2]ir.VarID{ir.VarID(d), ir.VarID(l)}
		}
	})
}
