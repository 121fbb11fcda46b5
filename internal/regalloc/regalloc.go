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
			// edges, so one frequency estimate serves every round.
			sc.dom.Recompute(f)
			freq = sc.dom.EstimateFrequenciesInto(&sc.freq)
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
// lowest cost/(degree+1), skipping already-spilled and tiny ranges.
func (sc *Scratch) color(f *ir.Func, k int) []ir.VarID {
	nv := f.NumVars()
	degree := sc.degree
	removed := reuse.Zeroed(sc.removed, nv)
	sc.removed = removed
	stack := sc.stack[:0]
	low := sc.low[:0]
	nodes := 0
	for v := 0; v < nv; v++ {
		if sc.appears[v] {
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
		for _, n := range sc.adj[v] {
			if !removed[n] {
				degree[n]--
				if int(degree[n]) == k-1 {
					low = append(low, ir.VarID(n))
				}
			}
		}
	}
	epoch := sc.spillEpoch
	for len(stack) < nodes {
		if len(low) > 0 {
			v := low[len(low)-1]
			low = low[:len(low)-1]
			if !removed[v] {
				remove(v)
			}
			continue
		}
		// Blocked: push the best spill candidate optimistically (Briggs —
		// it may still color if its neighbors end up sharing registers).
		best := ir.VarID(-1)
		bestScore := 0.0
		for v := 0; v < nv; v++ {
			if removed[v] || sc.spilled[v] == epoch || sc.tinyRange(ir.VarID(v)) {
				continue
			}
			score := sc.cost[v] / float64(degree[v]+1)
			if best < 0 || score < bestScore {
				best, bestScore = ir.VarID(v), score
			}
		}
		if best < 0 {
			// Everything left is already-spilled tiny ranges; push them
			// all and hope optimism colors them (their degree is small).
			for v := 0; v < nv; v++ {
				if !removed[v] {
					remove(ir.VarID(v))
				}
			}
			continue
		}
		remove(best)
	}
	sc.low = low

	// Select: pop in reverse, assigning the lowest register not used by
	// an already-colored neighbor; failures become the next spill set.
	colors := reuse.Slice(sc.colors, nv)
	sc.colors = colors
	for v := range colors {
		colors[v] = -1
	}
	inUse := reuse.Zeroed(sc.inUse, k)
	sc.inUse = inUse
	toSpill := sc.toSpill[:0]
	for i := len(stack) - 1; i >= 0; i-- {
		v := stack[i]
		clear(inUse)
		for _, n := range sc.adj[v] {
			if c := colors[n]; c >= 0 {
				inUse[c] = true
			}
		}
		assigned := int32(-1)
		for c := 0; c < k; c++ {
			if !inUse[c] {
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
	sc.stack = stack
	sc.toSpill = toSpill
	return toSpill
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
		if c >= 0 && !sc.inUse[c] {
			sc.inUse[c] = true
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
