// Benchmarks regenerating the paper's evaluation, one family per table
// plus the scaling study behind the O(n α(n)) claim and ablations of the
// design choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics: "copies/op" is the number of copy instructions (static
// or dynamic, per the table) the measured pipeline leaves behind;
// "matrixB/op" is interference-graph bit-matrix bytes.
package fastcoalesce

import (
	"fmt"
	"testing"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/core"
	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/domforest"
	"fastcoalesce/internal/ifgraph"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/opt"
	"fastcoalesce/internal/regalloc"
	"fastcoalesce/internal/ssa"
)

func compileSuite(b *testing.B) map[string]*ir.Func {
	b.Helper()
	out := map[string]*ir.Func{}
	for _, w := range bench.Workloads() {
		f, err := bench.CompileWorkload(w)
		if err != nil {
			b.Fatal(err)
		}
		out[w.Name] = f
	}
	return out
}

// --- Table 1: the two interference-graph coalescers --------------------

func benchmarkGraphCoalescer(b *testing.B, improved bool) {
	suite := compileSuite(b)
	for _, w := range bench.Workloads() {
		f := suite[w.Name]
		b.Run(w.Name, func(b *testing.B) {
			var matrix int64
			var algo bench.Algo = bench.Briggs
			if improved {
				algo = bench.BriggsStar
			}
			for i := 0; i < b.N; i++ {
				r := bench.RunPipeline(f, algo)
				matrix = r.Graph.TotalMatrixBytes()
			}
			b.ReportMetric(float64(matrix), "matrixB/op")
		})
	}
}

func BenchmarkTable1Briggs(b *testing.B)     { benchmarkGraphCoalescer(b, false) }
func BenchmarkTable1BriggsStar(b *testing.B) { benchmarkGraphCoalescer(b, true) }

// --- Tables 2 and 3: pipeline time and memory ---------------------------
//
// -benchmem reports the Table 3 quantity (allocation during conversion).

func BenchmarkTable2Pipelines(b *testing.B) {
	suite := compileSuite(b)
	for _, algo := range bench.Algos {
		algo := algo
		for _, w := range bench.Workloads() {
			f := suite[w.Name]
			b.Run(fmt.Sprintf("%s/%s", algo, w.Name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bench.RunPipeline(f, algo)
				}
			})
		}
	}
}

// --- Table 4: dynamic copies --------------------------------------------

func BenchmarkTable4DynamicCopies(b *testing.B) {
	suite := compileSuite(b)
	for _, algo := range []bench.Algo{bench.Standard, bench.New, bench.BriggsStar} {
		algo := algo
		for _, w := range bench.Workloads() {
			w := w
			f := suite[w.Name]
			b.Run(fmt.Sprintf("%s/%s", algo, w.Name), func(b *testing.B) {
				r := bench.RunPipeline(f, algo)
				var copies int64
				for i := 0; i < b.N; i++ {
					n, err := bench.DynamicCopies(r.Func, w)
					if err != nil {
						b.Fatal(err)
					}
					copies = n
				}
				b.ReportMetric(float64(copies), "copies/op")
			})
		}
	}
}

// --- Table 5: static copies ----------------------------------------------

func BenchmarkTable5StaticCopies(b *testing.B) {
	suite := compileSuite(b)
	for _, algo := range []bench.Algo{bench.Standard, bench.New, bench.BriggsStar} {
		algo := algo
		for _, w := range bench.Workloads() {
			f := suite[w.Name]
			b.Run(fmt.Sprintf("%s/%s", algo, w.Name), func(b *testing.B) {
				var copies int
				for i := 0; i < b.N; i++ {
					copies = bench.RunPipeline(f, algo).StaticCopies
				}
				b.ReportMetric(float64(copies), "copies/op")
			})
		}
	}
}

// --- §3.7 scaling: near-linear New vs superlinear graph building ---------

func benchmarkScaling(b *testing.B, algo bench.Algo) {
	for _, stmts := range []int{100, 400, 1600} {
		w := bench.Generate(int64(stmts), bench.GenConfig{
			Stmts: stmts, MaxDepth: 4, Scalars: 3, Arrays: 2,
		})
		f, err := lang.CompileOne(w.Src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("stmts=%d", stmts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.RunPipeline(f, algo)
			}
		})
	}
}

func BenchmarkScalingStandard(b *testing.B)   { benchmarkScaling(b, bench.Standard) }
func BenchmarkScalingNew(b *testing.B)        { benchmarkScaling(b, bench.New) }
func BenchmarkScalingBriggs(b *testing.B)     { benchmarkScaling(b, bench.Briggs) }
func BenchmarkScalingBriggsStar(b *testing.B) { benchmarkScaling(b, bench.BriggsStar) }

// --- Ablations -------------------------------------------------------------

// Ablation 1 (§3.1): the five early filters. Without them the forest and
// local passes must discover every interference.
func BenchmarkAblationFilters(b *testing.B) {
	suite := compileSuite(b)
	for _, mode := range []struct {
		name string
		opt  core.Options
	}{
		{"filters-on", core.Options{}},
		{"filters-off", core.Options{NoFilters: true}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var copies int
			for i := 0; i < b.N; i++ {
				copies = 0
				for _, f := range suite {
					g := f.Clone()
					ssa.Build(g, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
					core.Coalesce(g, mode.opt)
					copies += g.CountCopies()
				}
			}
			b.ReportMetric(float64(copies), "copies/op")
		})
	}
}

// Ablation 2 (Lemma 3.1): dominance forest vs naive pairwise checking.
func BenchmarkAblationForest(b *testing.B) {
	suite := compileSuite(b)
	for _, mode := range []struct {
		name string
		opt  core.Options
	}{
		{"forest", core.Options{}},
		{"pairwise", core.Options{NaivePairwise: true}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, f := range suite {
					g := f.Clone()
					ssa.Build(g, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
					core.Coalesce(g, mode.opt)
				}
			}
		})
	}
}

// Ablation 3 (§3): SSA flavor feeding the coalescer. Less pruning means
// more φs and possibly more copies.
func BenchmarkAblationSSAFlavor(b *testing.B) {
	suite := compileSuite(b)
	for _, fl := range []ssa.Flavor{ssa.Minimal, ssa.SemiPruned, ssa.Pruned} {
		fl := fl
		b.Run(fl.String(), func(b *testing.B) {
			var copies, phis int
			for i := 0; i < b.N; i++ {
				copies, phis = 0, 0
				for _, f := range suite {
					g := f.Clone()
					st := ssa.Build(g, ssa.Options{Flavor: fl, FoldCopies: true})
					phis += st.PhisInserted
					core.Coalesce(g, core.Options{})
					copies += g.CountCopies()
				}
			}
			b.ReportMetric(float64(copies), "copies/op")
			b.ReportMetric(float64(phis), "phis/op")
		})
	}
}

// Ablation 4 (§4.3): the baseline's innermost-loop-first copy ordering vs
// program order, measured in dynamic copies.
func BenchmarkAblationBriggsOrdering(b *testing.B) {
	for _, useDepth := range []bool{true, false} {
		useDepth := useDepth
		name := "program-order"
		if useDepth {
			name = "loop-depth-order"
		}
		b.Run(name, func(b *testing.B) {
			var dyn int64
			for i := 0; i < b.N; i++ {
				dyn = 0
				for _, w := range bench.Workloads() {
					f, err := bench.CompileWorkload(w)
					if err != nil {
						b.Fatal(err)
					}
					g := f.Clone()
					ssa.Build(g, ssa.Options{Flavor: ssa.Pruned, FoldCopies: false})
					ifgraph.JoinPhiWebs(g)
					var depth []int32
					if useDepth {
						depth = dom.New(g).FindLoops().Depth
					}
					ifgraph.Coalesce(g, ifgraph.Options{Improved: true, Depth: depth})
					n, err := bench.DynamicCopies(g, w)
					if err != nil {
						b.Fatal(err)
					}
					dyn += n
				}
			}
			b.ReportMetric(float64(dyn), "dyncopies/op")
		})
	}
}

// --- Extension experiments -------------------------------------------------

// BenchmarkExtOptimizedPipeline measures the full optimizing pipeline
// (SSA + value numbering + DCE + coalescing) against the plain one.
func BenchmarkExtOptimizedPipeline(b *testing.B) {
	w, ok := bench.WorkloadByName("twldrv")
	if !ok {
		b.Fatal("twldrv missing")
	}
	f, err := bench.CompileWorkload(w)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := f.Clone()
			st := ssa.Build(g, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
			core.Coalesce(g, core.Options{Dom: st.Dom})
		}
	})
	b.Run("optimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := f.Clone()
			st := ssa.Build(g, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
			opt.Optimize(g)
			core.Coalesce(g, core.Options{Dom: st.Dom})
		}
	})
}

// BenchmarkExtAllocation measures graph-coloring allocation on live
// ranges produced by each destruction pipeline.
func BenchmarkExtAllocation(b *testing.B) {
	w, ok := bench.WorkloadByName("tomcatv")
	if !ok {
		b.Fatal("tomcatv missing")
	}
	f, err := bench.CompileWorkload(w)
	if err != nil {
		b.Fatal(err)
	}
	for _, algo := range []bench.Algo{bench.Standard, bench.New, bench.BriggsStar} {
		algo := algo
		r := bench.RunPipeline(f, algo)
		b.Run(algo.String(), func(b *testing.B) {
			var spills int
			for i := 0; i < b.N; i++ {
				g := r.Func.Clone()
				res, err := regalloc.Allocate(g, regalloc.Options{K: 8})
				if err != nil {
					b.Fatal(err)
				}
				spills = res.SpilledVars
			}
			b.ReportMetric(float64(spills), "spills/op")
		})
	}
}

// BenchmarkExtAllocationLarge measures the allocator at scale: New's
// output for generated programs shaped like the large benchmark's (800,
// 1 600 and 3 200 statements), allocated at k = 8 on a warm Scratch, the
// way a batch worker runs it. Two untimed calls warm the Scratch (the
// liveness arena settles on the second), and each iteration allocates a
// fresh clone, made outside the timed region.
func BenchmarkExtAllocationLarge(b *testing.B) {
	for _, stmts := range []int{800, 1600, 3200} {
		w := bench.Generate(int64(stmts), bench.GenConfig{Stmts: stmts, MaxDepth: 3, Scalars: 2, Arrays: 1})
		f, err := bench.CompileWorkload(w)
		if err != nil {
			b.Fatal(err)
		}
		g := bench.RunPipeline(f, bench.New).Func
		b.Run(fmt.Sprintf("stmts=%d", stmts), func(b *testing.B) {
			var sc regalloc.Scratch
			opt := regalloc.Options{K: 8}
			for range 2 {
				if _, err := regalloc.AllocateScratch(g.Clone(), opt, &sc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var spills int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := g.Clone()
				b.StartTimer()
				res, err := regalloc.AllocateScratch(h, opt, &sc)
				if err != nil {
					b.Fatal(err)
				}
				spills = res.SpilledVars
			}
			b.ReportMetric(float64(spills), "spills/op")
		})
	}
}

// --- Microbenchmarks of the paper's data structure -----------------------

func BenchmarkDominanceForestBuild(b *testing.B) {
	// A deep chain CFG stresses the stack sweep.
	for _, n := range []int{100, 1000, 10000} {
		f := ir.NewFunc("chain")
		v := f.NewVar("v")
		prev := f.Blocks[f.Entry]
		vars := []ir.VarID{}
		defB := map[ir.VarID]ir.BlockID{}
		for i := 0; i < n; i++ {
			nb := f.NewBlock()
			prev.Instrs = append(prev.Instrs, ir.Instr{Op: ir.OpJmp, Def: ir.NoVar})
			f.AddEdge(prev.ID, nb.ID)
			nv := f.NewVar("")
			vars = append(vars, nv)
			defB[nv] = nb.ID
			prev = nb
		}
		prev.Instrs = append(prev.Instrs, ir.Instr{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{v}})
		dt := dom.New(f)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				domforest.Build(dt, vars, func(x ir.VarID) ir.BlockID { return defB[x] })
			}
		})
	}
}
