package bench

import (
	"fmt"
	"strings"
	"time"

	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
)

// The solver crossover sweep: for every CFG family and size, time both
// dominator solvers (CHK vs SEMI-NCA) and both liveness extremes
// (dense worklist vs sparse per-variable) in warm-scratch steady state,
// and record where each alternative overtakes the default. Every timed
// point is also a differential check — the sweep aborts if SEMI-NCA's
// tree or the sparse live-sets disagree with the baselines, which lets
// CI run `experiments -solvers` as a correctness gate.

// SolverEntry is one (family, size) point of the sweep. Times are
// best-of-repeat ns per recompute on warm scratch state.
type SolverEntry struct {
	Family     string  `json:"family"`
	Size       int     `json:"size"`   // generator parameter
	Blocks     int     `json:"blocks"` // resulting CFG size
	Vars       int     `json:"vars"`
	CHKNs      float64 `json:"chk_ns"`
	SemiNCANs  float64 `json:"semi_nca_ns"`
	WorklistNs float64 `json:"worklist_ns"`
	SparseNs   float64 `json:"sparse_ns"`
}

// solverSizes are the generator parameters swept per family.
var solverSizes = []int{4, 16, 64, 256, 1024}

// timeBest returns the best-of-repeat per-op nanoseconds for body.
func timeBest(repeat, iters int, body func()) float64 {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < repeat; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			body()
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(iters)
}

// solverPoint measures one family member, differentially checking the
// two dominator trees and the two liveness solutions along the way.
func solverPoint(family string, size int, f *ir.Func) (SolverEntry, error) {
	e := SolverEntry{
		Family: family, Size: size,
		Blocks: f.NumBlocks(), Vars: f.NumVars(),
	}
	// Iteration counts scale inversely with CFG size so every point costs
	// roughly the same wall time.
	iters := 1 + 4096/f.NumBlocks()

	var chk, snca dom.Tree
	chk.RecomputeWith(f, dom.CHK)
	snca.RecomputeWith(f, dom.SemiNCA)
	for b := range f.Blocks {
		if chk.Idom[b] != snca.Idom[b] {
			return e, fmt.Errorf("%s/%d: idom(b%d) differs: chk=%d semi-nca=%d",
				family, size, b, chk.Idom[b], snca.Idom[b])
		}
	}
	e.CHKNs = timeBest(3, iters, func() { chk.RecomputeWith(f, dom.CHK) })
	e.SemiNCANs = timeBest(3, iters, func() { snca.RecomputeWith(f, dom.SemiNCA) })

	var scW, scS liveness.Scratch
	lw := liveness.ComputeWith(f, &scW, liveness.Worklist)
	ls := liveness.ComputeWith(f, &scS, liveness.Sparse)
	for _, b := range f.Blocks {
		if !sameNames(lw.LiveInNames(b.ID), ls.LiveInNames(b.ID)) ||
			!sameNames(lw.LiveOutNames(b.ID), ls.LiveOutNames(b.ID)) {
			return e, fmt.Errorf("%s/%d: live sets differ at b%d", family, size, b.ID)
		}
	}
	e.WorklistNs = timeBest(3, iters, func() { liveness.ComputeWith(f, &scW, liveness.Worklist) })
	e.SparseNs = timeBest(3, iters, func() { liveness.ComputeWith(f, &scS, liveness.Sparse) })
	return e, nil
}

// sameNames reports whether two live-set iterators yield the same names.
func sameNames(x, y liveness.Names) bool {
	for {
		u, okx := x.Next()
		v, oky := y.Next()
		if okx != oky || u != v {
			return false
		}
		if !okx {
			return true
		}
	}
}

// RunSolverSweep measures every family at every sweep size. The error
// path is a differential mismatch — a timing run never fails.
func RunSolverSweep() ([]SolverEntry, error) {
	var out []SolverEntry
	for _, fam := range Families() {
		for _, size := range solverSizes {
			f := fam.Build(size)
			if err := f.Verify(); err != nil {
				return nil, fmt.Errorf("%s/%d: generated CFG invalid: %w", fam.Name, size, err)
			}
			e, err := solverPoint(fam.Name, size, f)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
	}
	return out, nil
}

// FormatSolverSweep renders the sweep as the text table `experiments
// -solvers` prints, marking each point's dominator and liveness winner.
func FormatSolverSweep(entries []SolverEntry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %6s %7s %6s  %10s %12s %5s  %11s %10s %5s\n",
		"family", "size", "blocks", "vars",
		"chk_ns", "semi_nca_ns", "win", "worklist_ns", "sparse_ns", "win")
	for _, e := range entries {
		domWin := "chk"
		if e.SemiNCANs < e.CHKNs {
			domWin = "snca"
		}
		liveWin := "dense"
		if e.SparseNs < e.WorklistNs {
			liveWin = "sparse"
		}
		fmt.Fprintf(&b, "%-18s %6d %7d %6d  %10.0f %12.0f %5s  %11.0f %10.0f %5s\n",
			e.Family, e.Size, e.Blocks, e.Vars,
			e.CHKNs, e.SemiNCANs, domWin, e.WorklistNs, e.SparseNs, liveWin)
	}
	return b.String()
}
