package ifgraph_test

import (
	"fmt"
	"reflect"
	"testing"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/ifgraph"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/ssa"
)

// briggsSSA puts f into the SSA form the Briggs pipelines join: SSA
// without copy folding.
func briggsSSA(f *ir.Func) *ir.Func {
	ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: false})
	return f
}

func generated(t *testing.T, seed int64, stmts int) *ir.Func {
	t.Helper()
	w := bench.Generate(seed, bench.GenConfig{Stmts: stmts, MaxDepth: 3, Scalars: 2, Arrays: 1})
	f, err := bench.CompileWorkload(w)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return briggsSSA(f)
}

// TestScratchMatchesCold joins the φ webs of functions in the order
// large, small, large, with and without copies, and coalesces them, on
// one reused Scratch under both Improved settings. The join must return
// the cold JoinPhiWebs map and text, and the map must survive the
// coalescer's use of the same Scratch; the output text, every pass's
// statistics and the name map must equal a cold Coalesce of the same
// input.
func TestScratchMatchesCold(t *testing.T) {
	compile := func(src string) *ir.Func {
		f, err := lang.CompileOne(src)
		if err != nil {
			t.Fatal(err)
		}
		return briggsSSA(f)
	}
	const swap = `
func swap(n int) int {
	var x int = 1
	var y int = 2
	var i int = 0
	while i < n {
		var t int = x
		x = y
		y = t
		i = i + 1
	}
	return x * 10 + y
}`
	inputs := []*ir.Func{
		generated(t, 11, 1500),
		compile(swap),
		briggsSSA(bench.DeepLoopNest(300)),
		compile("func nocopies(a int, b int) int {\n\treturn a * b + 1\n}"),
		generated(t, 12, 1200),
		compile(swap),
	}
	if inputs[0].CountCopies() == 0 || inputs[2].CountCopies() != 0 || inputs[3].CountCopies() != 0 {
		t.Fatal("inputs do not alternate functions with and without copies")
	}
	if inputs[0].CountPhis() == 0 || inputs[4].CountPhis() == 0 {
		t.Fatal("the large inputs have no φ webs to join")
	}
	for _, improved := range []bool{false, true} {
		var sc ifgraph.Scratch
		for i, in := range inputs {
			label := fmt.Sprintf("improved=%v input %d (%s)", improved, i, in.Name)
			opt := ifgraph.Options{
				Improved:      improved,
				Depth:         dom.New(in).FindLoops().Depth,
				RecordNameMap: true,
			}
			cold, warm := in.Clone(), in.Clone()
			wantJoin := ifgraph.JoinPhiWebs(cold)
			gotJoin := ifgraph.JoinPhiWebsScratch(warm, &sc)
			if warm.String() != cold.String() {
				t.Fatalf("%s: joined text differs from cold JoinPhiWebs", label)
			}
			if !reflect.DeepEqual(gotJoin, wantJoin) {
				t.Fatalf("%s: join map differs from cold JoinPhiWebs", label)
			}
			want := ifgraph.Coalesce(cold, opt)
			got := ifgraph.CoalesceScratch(warm, opt, &sc)
			if !reflect.DeepEqual(gotJoin, wantJoin) {
				t.Fatalf("%s: CoalesceScratch changed the join map", label)
			}
			if warm.String() != cold.String() {
				t.Fatalf("%s: output differs from cold Coalesce", label)
			}
			if !reflect.DeepEqual(got.Passes, want.Passes) {
				t.Fatalf("%s: passes %+v, cold %+v", label, got.Passes, want.Passes)
			}
			if got.CopiesCoalesced != want.CopiesCoalesced {
				t.Fatalf("%s: %d copies coalesced, cold %d", label, got.CopiesCoalesced, want.CopiesCoalesced)
			}
			if !reflect.DeepEqual(got.NameMap, want.NameMap) {
				t.Fatalf("%s: name map differs from cold Coalesce", label)
			}
		}
	}
}
