package driver

import (
	"fmt"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/core"
	"fastcoalesce/internal/ifgraph"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/obs"
	"fastcoalesce/internal/regalloc"
	"fastcoalesce/internal/ssa"
)

// The one definition of the paper's four pipelines (§4): every pipeline
// is BuildSSA followed by Destruct, and Allocate is the optional backend
// over any of them. The batch worker (compileOne), the experiment harness
// (bench.RunPipeline) and the single-file CLI all call these helpers, so
// a pipeline cannot drift between the three. Each helper takes the
// worker's Scratch; a nil *Scratch compiles cold with no tracer.

// FoldsCopies reports whether the pipeline builds SSA with copy folding.
// Standard and New do; the Briggs pipelines keep the copies for the
// interference-graph coalescer and therefore cannot take input that is
// already in φ-form.
func (a Algo) FoldsCopies() bool { return a == Standard || a == New }

// BuildSSA puts f, in place, into the SSA form cfg.Algo destructs, with
// cfg's flavor. Input already in φ-form (hand-written .ir) skips
// construction and only has its critical edges split; the returned Stats
// is then empty, with no dominator tree.
func BuildSSA(f *ir.Func, cfg Config, sc *Scratch) (*ssa.Stats, error) {
	fold := cfg.Algo.FoldsCopies()
	if f.CountPhis() > 0 {
		if !fold {
			return nil, fmt.Errorf("%v rebuilds SSA without folding and cannot take SSA-form input", cfg.Algo)
		}
		f.SplitCriticalEdges()
		return &ssa.Stats{}, nil
	}
	return ssa.Build(f, ssa.Options{
		Flavor: cfg.Flavor, FoldCopies: fold,
		Scratch: sc.ssaScratch(), Obs: sc.tracer(),
	}), nil
}

// DestructStats reports what Destruct did. Only the field of the
// pipeline that ran is filled; the others stay zero, so sums across them
// are the pipeline's own counts.
type DestructStats struct {
	Standard ssa.DestructStats     // Standard
	Core     core.Stats            // New
	Graph    ifgraph.CoalesceStats // Briggs and Briggs*

	// NameMap maps every SSA name to the name it carries in the output.
	// It is recorded only when cfg.Check is on, and is nil (the identity)
	// under Standard, which never renames.
	NameMap []ir.VarID
}

// Destruct converts f, in place, out of the SSA form BuildSSA produced,
// with cfg.Algo's destruction step. st is BuildSSA's result: its
// dominator tree is reused, so a pipeline computes dominators once. The
// stats come back by value; New's are copied out of the worker's
// coalescer scratch, so a warm job allocates nothing for them.
func Destruct(f *ir.Func, st *ssa.Stats, cfg Config, sc *Scratch) (DestructStats, error) {
	var ds DestructStats
	record := cfg.Check != analysis.None
	tr := sc.tracer()
	switch cfg.Algo {
	case Standard:
		tr.Begin(obs.PhasePhiInstantiate)
		ds.Standard = *ssa.DestructStandard(f)
		tr.End(obs.PhasePhiInstantiate)
	case New:
		opt := core.Options{Dom: st.Dom, RecordNameMap: record, Obs: tr}
		if csc := sc.coreScratch(); csc != nil {
			ds.Core = *core.CoalesceScratch(f, opt, csc)
		} else {
			ds.Core = *core.Coalesce(f, opt)
		}
		ds.NameMap = ds.Core.NameMap
	case Briggs, BriggsStar:
		joinMap := ifgraph.JoinPhiWebs(f)
		// JoinPhiWebs only renames; the CFG is unchanged since the SSA
		// build, so its dominator tree serves the loop-depth query.
		ds.Graph = *ifgraph.Coalesce(f, ifgraph.Options{
			Improved:      cfg.Algo == BriggsStar,
			Depth:         st.Dom.FindLoops().Depth,
			RecordNameMap: record,
		})
		if record {
			// Compose the two renamings: SSA name → φ-web rep → final name.
			for v := range joinMap {
				joinMap[v] = ds.Graph.NameMap[joinMap[v]]
			}
			ds.NameMap = joinMap
		}
	default:
		return ds, fmt.Errorf("driver: unknown algorithm %v", cfg.Algo)
	}
	return ds, nil
}

// Allocate is the backend shared by every pipeline: it colors the
// destructed f with cfg.RegallocK registers, rewriting it with spill
// code, then checks the coloring against interference computed afresh
// (regalloc.VerifyAllocationScratch) and re-verifies the IR. The
// allocator's result is returned whenever the allocator produced one,
// even alongside an error.
func Allocate(f *ir.Func, cfg Config, sc *Scratch) (*regalloc.Result, error) {
	tr := sc.tracer()
	ra, err := regalloc.AllocateScratch(f, regalloc.Options{K: cfg.RegallocK, Obs: tr}, sc.regallocScratch())
	if err != nil {
		return ra, fmt.Errorf("regalloc k=%d: %w", cfg.RegallocK, err)
	}
	tr.Begin(obs.PhaseRegallocVerify)
	err = regalloc.VerifyAllocationScratch(f, ra.Colors, cfg.RegallocK, sc.regallocScratch())
	if err == nil {
		err = f.Verify()
	}
	tr.End(obs.PhaseRegallocVerify)
	if err != nil {
		return ra, fmt.Errorf("regalloc k=%d verify: %w", cfg.RegallocK, err)
	}
	return ra, nil
}
