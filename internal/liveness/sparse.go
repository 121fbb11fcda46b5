// Sparse per-variable liveness ("Parameterized Construction of Program
// Representations for Sparse Dataflow Analyses", Tavares et al.): instead
// of iterating whole-CFG bitset equations until they stabilize, walk each
// live (variable, block) pair upward from its uses. A pair is processed at
// most once — membership in the live-in set is the visited mark — so the
// total work is proportional to the size of the answer (the live ranges)
// plus the seeds, not to blocks × variables × sweeps.
//
// The solver computes the same least fixpoint as the dense solvers:
//
//	In(b)  = UEVar(b) ∪ (Out(b) \ Def(b))
//	Out(b) = ⋃ over successors s of In(s), plus φ args flowing out of b
//
// seeded from upward-exposed uses (v ∈ In(b) for v ∈ UEVar(b)) and φ-edge
// uses (arg i of a φ in s is live-out of s's i-th predecessor), then
// closed upward: v live-in to b makes v live-out of every reachable
// predecessor, and live-in there too unless the predecessor defines v.
// Multi-def non-SSA programs work unchanged — Def(b) kills propagation
// exactly as in the dense equations — and unreachable blocks keep empty
// sets because nothing seeds them.
package liveness

import (
	"math/bits"

	"fastcoalesce/internal/ir"
)

// varBlock is one unit of sparse-solver work: the global name with bit k
// is live-in to block b and its predecessors have not yet been told.
type varBlock struct {
	k int32
	b ir.BlockID
}

// ComputeSparse runs the sparse per-variable solver with fresh memory.
func ComputeSparse(f *ir.Func) *Info {
	return ComputeSparseScratch(f, &Scratch{})
}

// ComputeSparseScratch runs the sparse per-variable solver, reusing sc's
// memory. The returned Info aliases sc and is invalidated by the next
// Compute*Scratch call with the same Scratch. A warm Scratch makes the
// whole computation allocation-free. Stats.Visits counts (variable,
// block) pair propagations rather than block evaluations.
//
// fc:hotpath
func ComputeSparseScratch(f *ir.Func, sc *Scratch) *Info {
	li, order := sc.prepare(f)
	pairs := sc.pairs[:0]

	// Seed φ-edge uses: argument i of a φ in block b is live-out of b's
	// i-th predecessor (and live-in there unless the predecessor defines
	// it). Only reachable predecessors receive sets, matching the dense
	// solvers (sc.state marks reachability after prepare).
	for _, bid := range order {
		b := f.Blocks[bid]
		for j := range b.Instrs {
			in := &b.Instrs[j]
			if in.Op != ir.OpPhi {
				break
			}
			for pi, a := range in.Args {
				p := b.Preds[pi]
				if sc.state[p] == 0 {
					continue
				}
				k := int(li.bit[a])
				if li.out[p].Has(k) {
					continue
				}
				li.out[p].Add(k)
				if !sc.defs[p].Has(k) && !li.in[p].Has(k) {
					li.in[p].Add(k)
					pairs = append(pairs, varBlock{int32(k), p})
				}
			}
		}
	}

	// Seed upward-exposed uses: v used in b above any def of v is live-in
	// to b. Word-at-a-time with the In set as the dedup mask, so a pair
	// already seeded through a φ edge is not pushed twice.
	for _, bid := range order {
		ue := sc.ueVar[bid]
		inb := li.in[bid]
		for wi, w := range ue {
			nw := w &^ inb[wi]
			if nw == 0 {
				continue
			}
			inb[wi] |= nw
			base := wi * 64
			for nw != 0 {
				k := base + bits.TrailingZeros64(nw)
				nw &= nw - 1
				pairs = append(pairs, varBlock{int32(k), bid})
			}
		}
	}

	// Close upward. Every pair enters the stack at most once (guarded by
	// its In bit), so this terminates after exactly |live ranges| pops.
	sc.stats = Stats{Blocks: len(order)}
	for len(pairs) > 0 {
		sc.stats.Visits++
		pr := pairs[len(pairs)-1]
		pairs = pairs[:len(pairs)-1]
		k := int(pr.k)
		for _, p := range f.Blocks[pr.b].Preds {
			if sc.state[p] == 0 || li.out[p].Has(k) {
				continue
			}
			li.out[p].Add(k)
			if !sc.defs[p].Has(k) && !li.in[p].Has(k) {
				li.in[p].Add(k)
				pairs = append(pairs, varBlock{pr.k, p})
			}
		}
	}
	sc.pairs = pairs[:0]
	return li
}
