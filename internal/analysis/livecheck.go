package analysis

import (
	"fmt"

	"fastcoalesce/internal/bitset"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
)

// livenessPass validates internal/liveness's iterative bitset result
// against a naive recompute that walks the CFG one variable at a time.
// The two implementations share nothing but the φ conventions (a φ's def
// is at its block top; its i-th argument is used on the edge from the
// i-th predecessor), so agreement is strong evidence both are right.
type livenessPass struct{}

// livenessCrossCheckCap bounds blocks × variables for the naive
// recompute; beyond it the pass records a skip instead of running. The
// corpus and the generated workloads sit far below this.
const livenessCrossCheckCap = 1 << 20

func (livenessPass) Name() string { return "liveness-crosscheck" }

func (livenessPass) Run(u *Unit, rep *Report) {
	if u.SSA == nil {
		rep.skip("liveness-crosscheck", "no SSA snapshot")
		return
	}
	f := u.SSA
	if n := len(f.Blocks) * f.NumVars(); n > livenessCrossCheckCap {
		rep.skip("liveness-crosscheck",
			fmt.Sprintf("function too large (blocks×vars = %d)", n))
		return
	}
	rep.Diags = append(rep.Diags, CrossCheckLiveness(u, f, u.liveInfo())...)
}

// CrossCheckLiveness recomputes liveness for f one variable at a time and
// returns a diagnostic for every reachable block whose live-in or
// live-out membership disagrees with info, querying info for every name
// (block-local ones included). It is exported so tests can feed it a
// deliberately wrong Info. Unreachable blocks are not
// compared: the iterative analysis leaves them empty by construction,
// while a use inside one genuinely propagates among unreachable blocks.
func CrossCheckLiveness(u *Unit, f *ir.Func, info *liveness.Info) []Diag {
	var diags []Diag
	reach := u.reachable()
	nb := len(f.Blocks)
	naiveIn := make([]bitset.Set, nb)
	naiveOut := make([]bitset.Set, nb)
	for i := range naiveIn {
		naiveIn[i] = bitset.New(f.NumVars())
		naiveOut[i] = bitset.New(f.NumVars())
	}

	for v := 0; v < f.NumVars(); v++ {
		naiveLiveOneVar(f, ir.VarID(v), naiveIn, naiveOut)
	}

	for bi := 0; bi < nb; bi++ {
		if !reach.Has(bi) {
			continue
		}
		b := ir.BlockID(bi)
		for v := ir.VarID(0); int(v) < f.NumVars(); v++ {
			iterIn, naivIn := info.LiveIn(b, v), naiveIn[bi].Has(int(v))
			if iterIn != naivIn {
				diags = append(diags, u.diag("liveness-crosscheck", b, -1,
					[]ir.VarID{v}, "",
					fmt.Sprintf("live-in disagreement: iterative=%v naive=%v", iterIn, naivIn)))
			}
			iterOut, naivOut := info.LiveOut(b, v), naiveOut[bi].Has(int(v))
			if iterOut != naivOut {
				diags = append(diags, u.diag("liveness-crosscheck", b, -1,
					[]ir.VarID{v}, "",
					fmt.Sprintf("live-out disagreement: iterative=%v naive=%v", iterOut, naivOut)))
			}
		}
	}
	return diags
}

// naiveLiveOneVar marks, in naiveIn/naiveOut, every block where v is
// live, by backward propagation from each of v's uses. Within a block: v
// is live-in iff it is used (by a non-φ instruction) before any def; it
// is live-out iff it is live-in to a successor (and then propagates to
// live-in here unless some instruction in the block defines it), or a
// successor's φ reads it along the corresponding edge.
func naiveLiveOneVar(f *ir.Func, v ir.VarID, naiveIn, naiveOut []bitset.Set) {
	nb := len(f.Blocks)
	defIn := make([]bool, nb)   // v defined anywhere in the block (incl. φ)
	upUse := make([]bool, nb)   // v read by a non-φ instruction before any def
	edgeUse := make([]bool, nb) // v flows out of the block into a successor's φ
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpPhi {
				for _, a := range in.Args {
					if a == v && !defIn[b.ID] {
						upUse[b.ID] = true
					}
				}
			} else {
				for pi, a := range in.Args {
					if a == v {
						edgeUse[b.Preds[pi]] = true
					}
				}
			}
			if in.Op.HasDef() && in.Def == v {
				defIn[b.ID] = true
			}
		}
	}

	// Seed live-out with edge uses, live-in with upward-exposed uses, and
	// run a plain worklist backward.
	var work []ir.BlockID
	markOut := func(b ir.BlockID) {
		if !naiveOut[b].Has(int(v)) {
			naiveOut[b].Add(int(v))
			work = append(work, b)
		}
	}
	for bi := 0; bi < nb; bi++ {
		if edgeUse[bi] {
			markOut(ir.BlockID(bi))
		}
		if upUse[bi] {
			naiveIn[bi].Add(int(v))
			for _, p := range f.Blocks[bi].Preds {
				markOut(p)
			}
		}
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		// v live-out of b: it reaches b's entry unless b defines it.
		if defIn[b] || naiveIn[b].Has(int(v)) {
			continue
		}
		naiveIn[b].Add(int(v))
		for _, p := range f.Blocks[b].Preds {
			markOut(p)
		}
	}
}
