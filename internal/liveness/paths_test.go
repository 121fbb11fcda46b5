package liveness_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/core"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/ssa"
)

// denseNames collects one of the bitset solver's live sets.
func denseNames(it liveness.Names) []ir.VarID {
	var out []ir.VarID
	for v, ok := it.Next(); ok; v, ok = it.Next() {
		out = append(out, v)
	}
	return out
}

// assertSameLists requires path exploration to give every block of f
// exactly the bitset solver's live-in and live-out names, in order. On
// functions small enough it also asks both for every (block, name) pair,
// which tests the search as well as the lists.
func assertSameLists(t *testing.T, label string, f *ir.Func, dense *liveness.Scratch, paths *liveness.PathScratch) {
	t.Helper()
	want := liveness.ComputeScratch(f, dense)
	got := liveness.ComputePathsScratch(f, paths)
	for _, b := range f.Blocks {
		if w, g := denseNames(want.LiveInNames(b.ID)), got.LiveInNames(b.ID); !slices.Equal(w, g) {
			t.Fatalf("%s: live-in of b%d: paths %v, bitsets %v\n%s", label, b.ID, g, w, f)
		}
		if w, g := denseNames(want.LiveOutNames(b.ID)), got.LiveOutNames(b.ID); !slices.Equal(w, g) {
			t.Fatalf("%s: live-out of b%d: paths %v, bitsets %v\n%s", label, b.ID, g, w, f)
		}
	}
	if len(f.Blocks)*f.NumVars() > 1<<16 {
		return
	}
	for _, b := range f.Blocks {
		for v := ir.VarID(0); int(v) < f.NumVars(); v++ {
			if got.LiveIn(b.ID, v) != want.LiveIn(b.ID, v) || got.LiveOut(b.ID, v) != want.LiveOut(b.ID, v) {
				t.Fatalf("%s: b%d %s: paths in/out %v/%v, bitsets %v/%v", label, b.ID, f.VarName(v),
					got.LiveIn(b.ID, v), got.LiveOut(b.ID, v), want.LiveIn(b.ID, v), want.LiveOut(b.ID, v))
			}
		}
	}
	if st, ws := paths.LastStats(), dense.LastStats(); st.Blocks != ws.Blocks {
		t.Fatalf("%s: paths counted %d reachable blocks, bitsets %d", label, st.Blocks, ws.Blocks)
	}
}

// threeForms returns f's pre-SSA form, New's SSA form (pruned, copies
// folded) and that form after New's destruction.
func threeForms(f *ir.Func) [3]*ir.Func {
	s := f.Clone()
	ssa.Build(s, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
	d := s.Clone()
	core.Coalesce(d, core.Options{})
	return [3]*ir.Func{f, s, d}
}

var formNames = [3]string{"pre-SSA", "SSA", "destructed"}

// largeShaped builds the large benchmark's 24 kinds of input at its
// sizes: generated programs of 800 to 3 200 statements, every step-th
// statement count, and its eight CFG family members.
func largeShaped(t testing.TB, step int) []*ir.Func {
	var out []*ir.Func
	for stmts := 800; stmts <= 3200; stmts += step {
		out = append(out, generate(t, int64(stmts), stmts))
	}
	for _, n := range []int{256, 1024} {
		out = append(out, bench.DeepLoopNest(n))
	}
	for _, n := range []int{256, 512, 768} {
		out = append(out, bench.DiamondLadder(n))
	}
	for _, n := range []int{256, 512, 1024} {
		out = append(out, bench.IrreducibleLadder(n))
	}
	return out
}

func generate(t testing.TB, seed int64, stmts int) *ir.Func {
	w := bench.Generate(seed, bench.GenConfig{Stmts: stmts, MaxDepth: 3, Scalars: 2, Arrays: 1})
	f, err := bench.CompileWorkload(w)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return f
}

// suite compiles the paper's kernels.
func suite(t testing.TB) []*ir.Func {
	var out []*ir.Func
	for _, w := range bench.Workloads() {
		f, err := bench.CompileWorkload(w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		out = append(out, f)
	}
	return out
}

// TestPathsMatchBitsets is the differential proof of path exploration:
// on the oracle's random φ-form functions, the random functions with
// unreachable blocks, the corpus, and the pre-SSA, SSA and destructed
// forms of the suite, the large-shaped programs, 300 generated programs
// and every CFG family at several sizes, it must give every block the
// bitset solver's lists. The pre-SSA and random inputs define names in
// several blocks. One scratch per solver serves every function, so
// state left over from a larger or smaller function would show.
func TestPathsMatchBitsets(t *testing.T) {
	var dense liveness.Scratch
	var paths liveness.PathScratch
	for i, f := range liveness.OracleFuncs() {
		assertSameLists(t, fmt.Sprintf("oracle-%03d", i), f, &dense, &paths)
	}
	unreachable := 0
	for i, f := range liveness.UnreachableFuncs() {
		assertSameLists(t, fmt.Sprintf("unreachable-%03d", i), f, &dense, &paths)
		unreachable += len(f.Blocks) - paths.LastStats().Blocks
	}
	if unreachable == 0 {
		t.Fatal("no unreachable block was checked")
	}
	for label, f := range corpusFuncs(t) {
		assertSameLists(t, label, f, &dense, &paths)
	}

	type input struct {
		label string
		f     *ir.Func
	}
	var inputs []input
	for i, f := range suite(t) {
		inputs = append(inputs, input{fmt.Sprintf("suite-%02d %s", i, f.Name), f})
	}
	step := 160
	if testing.Short() {
		step = 800
	}
	for _, f := range largeShaped(t, step) {
		inputs = append(inputs, input{"large " + f.Name, f})
	}
	for seed := int64(0); seed < 300; seed++ {
		f := generate(t, 9000+seed, 20+int(seed%7)*30)
		inputs = append(inputs, input{fmt.Sprintf("generated-%03d", seed), f})
	}
	for _, fam := range bench.Families() {
		for _, n := range []int{1, 2, 5, 16, 64, 200} {
			inputs = append(inputs, input{fmt.Sprintf("%s-%d", fam.Name, n), fam.Build(n)})
		}
	}
	multiDef := 0
	for _, in := range inputs {
		for k, f := range threeForms(in.f) {
			if k != 1 && definedTwice(f) {
				multiDef++
			}
			assertSameLists(t, in.label+" "+formNames[k], f, &dense, &paths)
		}
	}
	if multiDef == 0 {
		t.Fatal("no checked input defines a name in two blocks")
	}
}

// definedTwice reports whether some name of f is defined in two blocks.
func definedTwice(f *ir.Func) bool {
	defBlock := make([]ir.BlockID, f.NumVars())
	for i := range defBlock {
		defBlock[i] = ir.NoBlock
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.Op.HasDef() {
				continue
			}
			if d := defBlock[in.Def]; d != ir.NoBlock && d != b.ID {
				return true
			}
			defBlock[in.Def] = b.ID
		}
	}
	return false
}

// TestPathsScratchZeroAlloc pins the allocation contract: once the
// scratch has grown to a function's size, solving it again allocates
// nothing.
func TestPathsScratchZeroAlloc(t *testing.T) {
	f := threeForms(generate(t, 77, 400))[1]
	var sc liveness.PathScratch
	liveness.ComputePathsScratch(f, &sc)
	if n := testing.AllocsPerRun(50, func() { liveness.ComputePathsScratch(f, &sc) }); n != 0 {
		t.Fatalf("warm ComputePathsScratch allocates %v objects per run, want 0", n)
	}
}

// BenchmarkSolverCrossover times both solvers over the pre-SSA, SSA
// and destructed forms of the suite and of the large-shaped programs,
// on warm scratch: the crossover that gives New's destruction (SSA form)
// path exploration and every other client the bitsets. Each iteration
// solves every function of the set with both solvers back to back and
// reports the path solver's time over the bitset solver's as
// paths/bitsets, so machine drift cancels in the ratio.
//
//	go test -run '^$' -bench SolverCrossover -benchtime 40x ./internal/liveness
func BenchmarkSolverCrossover(b *testing.B) {
	for _, set := range []struct {
		name  string
		funcs func(testing.TB) []*ir.Func
	}{
		{"suite", suite},
		{"large", func(tb testing.TB) []*ir.Func { return largeShaped(tb, 160) }},
	} {
		var forms [3][]*ir.Func
		for _, f := range set.funcs(b) {
			for k, g := range threeForms(f) {
				forms[k] = append(forms[k], g)
			}
		}
		for k, fs := range forms {
			b.Run(set.name+"/"+formNames[k], func(b *testing.B) {
				var dense liveness.Scratch
				var paths liveness.PathScratch
				var tDense, tPaths time.Duration
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					for _, f := range fs {
						liveness.ComputeScratch(f, &dense)
					}
					t1 := time.Now()
					for _, f := range fs {
						liveness.ComputePathsScratch(f, &paths)
					}
					tDense += t1.Sub(t0)
					tPaths += time.Since(t1)
				}
				b.ReportMetric(float64(tDense.Nanoseconds())/float64(b.N), "bitsets-ns/op")
				b.ReportMetric(float64(tPaths.Nanoseconds())/float64(b.N), "paths-ns/op")
				b.ReportMetric(float64(tPaths)/float64(tDense), "paths/bitsets")
			})
		}
	}
}
