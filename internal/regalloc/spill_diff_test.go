package regalloc_test

import (
	"fmt"
	"reflect"
	"testing"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/regalloc"
)

// TestAllocateMatchesPerNameReference pins the one-pass spill rewriter
// to the per-name reference it replaced: the famgen families through
// every pipeline and a run of generated programs, allocated at k = 2, 3,
// 4 and 8 by AllocateScratch (on one warm Scratch) and by the reference,
// must produce identical code and identical Results.
func TestAllocateMatchesPerNameReference(t *testing.T) {
	type input struct {
		name string
		f    *ir.Func
	}
	var inputs []input
	for _, fam := range bench.Families() {
		for _, size := range []int{6, 32} {
			f := fam.Build(size)
			for _, algo := range bench.Algos {
				inputs = append(inputs, input{fmt.Sprintf("%s-%d/%v", fam.Name, size, algo), bench.RunPipeline(f, algo).Func})
			}
		}
	}
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		w := bench.Generate(seed, bench.GenConfig{Stmts: 40, MaxDepth: 3, Scalars: 2, Arrays: 1})
		orig, err := bench.CompileWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("gen-%d", seed), bench.RunPipeline(orig, bench.New).Func})
	}

	var sc regalloc.Scratch
	spilled := 0
	for _, in := range inputs {
		for _, k := range []int{2, 3, 4, 8} {
			got, want := in.f.Clone(), in.f.Clone()
			resGot, errGot := regalloc.AllocateScratch(got, regalloc.Options{K: k}, &sc)
			resWant, errWant := regalloc.AllocateReference(want, regalloc.Options{K: k})
			if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
				t.Fatalf("%s k=%d: error %v, reference %v", in.name, k, errGot, errWant)
			}
			if !reflect.DeepEqual(resGot, resWant) {
				t.Fatalf("%s k=%d: Result %+v, reference %+v", in.name, k, resGot, resWant)
			}
			if g, w := string(got.AppendText(nil)), string(want.AppendText(nil)); g != w {
				t.Fatalf("%s k=%d: allocated code differs from the reference", in.name, k)
			}
			spilled += resGot.SpilledVars
		}
	}
	if spilled == 0 {
		t.Fatal("no input spilled; the comparison exercised no rewriting")
	}
}
