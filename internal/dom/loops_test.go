package dom_test

import (
	"fmt"
	"slices"
	"testing"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/ir"
)

// TestLoopDepthMatchesFindLoops checks the depth-only walk against
// FindLoops on every CFG family at several sizes and on generated
// programs, with one LoopScratch reused across all of them so state
// left by a larger or deeper function would show.
func TestLoopDepthMatchesFindLoops(t *testing.T) {
	type input struct {
		name string
		f    *ir.Func
	}
	var inputs []input
	for _, fam := range bench.Families() {
		for _, n := range []int{1, 2, 7, 64, 300, 5} {
			inputs = append(inputs, input{fmt.Sprintf("%s-%d", fam.Name, n), fam.Build(n)})
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		w := bench.Generate(seed, bench.GenConfig{Stmts: 20 + int(seed)*15, MaxDepth: 1 + int(seed)%4, Scalars: 2, Arrays: 1})
		f, err := bench.CompileWorkload(w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		inputs = append(inputs, input{w.Name, f})
	}
	var sc dom.LoopScratch
	nested := false
	for _, in := range inputs {
		dt := dom.New(in.f)
		want := dt.FindLoops().Depth
		got := dt.LoopDepthInto(&sc)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: LoopDepthInto = %v, FindLoops().Depth = %v", in.name, got, want)
		}
		if cold := dt.LoopDepthInto(nil); !slices.Equal(cold, want) {
			t.Fatalf("%s: cold LoopDepthInto = %v, FindLoops().Depth = %v", in.name, cold, want)
		}
		nested = nested || slices.Max(want) > 1
	}
	if !nested {
		t.Fatal("no input nests loops; the comparison proves little")
	}
}
