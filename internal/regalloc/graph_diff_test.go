package regalloc_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/regalloc"
)

// allocInput is one φ-free function and the register counts it is
// allocated at.
type allocInput struct {
	name string
	f    *ir.Func
	ks   []int
}

// graphDiffInputs returns the differential's inputs: the suite through
// every pipeline at k = 2, 4 and 8; every famgen family at sizes up to
// 200 through every pipeline at the same counts; 200 generated programs
// through New at k = 3 and 8; and the large benchmark's 16 generated
// programs of 800 to 3 200 statements (1 600 under -short) through New
// at k = 8.
func graphDiffInputs(t *testing.T) []allocInput {
	t.Helper()
	compile := func(w bench.Workload) *ir.Func {
		f, err := bench.CompileWorkload(w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		return f
	}
	small := []int{2, 4, 8}
	var inputs []allocInput
	for _, w := range bench.Workloads() {
		f := compile(w)
		for _, algo := range bench.Algos {
			inputs = append(inputs, allocInput{fmt.Sprintf("%s/%v", w.Name, algo), bench.RunPipeline(f, algo).Func, small})
		}
	}
	for _, fam := range bench.Families() {
		for _, size := range []int{3, 12, 50, 200} {
			f := fam.Build(size)
			for _, algo := range bench.Algos {
				inputs = append(inputs, allocInput{fmt.Sprintf("%s-%d/%v", fam.Name, size, algo), bench.RunPipeline(f, algo).Func, small})
			}
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		w := bench.Generate(seed, bench.GenConfig{Stmts: 40, MaxDepth: 3, Scalars: 2, Arrays: 1})
		inputs = append(inputs, allocInput{fmt.Sprintf("gen-%d", seed), bench.RunPipeline(compile(w), bench.New).Func, []int{3, 8}})
	}
	maxStmts := 3200
	if testing.Short() {
		maxStmts = 1600
	}
	for stmts := 800; stmts <= maxStmts; stmts += 160 {
		w := bench.Generate(int64(stmts), bench.GenConfig{Stmts: stmts, MaxDepth: 3, Scalars: 2, Arrays: 1})
		inputs = append(inputs, allocInput{fmt.Sprintf("large-%d", stmts), bench.RunPipeline(compile(w), bench.New).Func, []int{8}})
	}
	return inputs
}

// TestAllocateMatchesMatrixReference pins build, color and the round
// loop to the reference steps they replaced (AllocateMatrixReference):
// on every input, AllocateScratch on one warm Scratch must produce the
// reference's Result, Colors included, and its code. A third allocation
// solves liveness afresh after every spill rewrite and requires the
// live-out sets the next round reads to equal the fresh solve's.
func TestAllocateMatchesMatrixReference(t *testing.T) {
	var sc regalloc.Scratch
	spilled, checked := 0, 0
	for _, in := range graphDiffInputs(t) {
		for _, k := range in.ks {
			got, want, carried := in.f.Clone(), in.f.Clone(), in.f.Clone()
			opt := regalloc.Options{K: k}
			resGot, errGot := regalloc.AllocateScratch(got, opt, &sc)
			resWant, errWant := regalloc.AllocateMatrixReference(want, opt)
			if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
				t.Fatalf("%s k=%d: error %v, reference %v", in.name, k, errGot, errWant)
			}
			if !reflect.DeepEqual(resGot, resWant) {
				t.Fatalf("%s k=%d: Result %+v, reference %+v", in.name, k, resGot, resWant)
			}
			if g, w := string(got.AppendText(nil)), string(want.AppendText(nil)); g != w {
				t.Fatalf("%s k=%d: allocated code differs from the reference", in.name, k)
			}
			resCarried, n, err := regalloc.AllocateCheckingLiveOut(carried, opt, &sc)
			if err != nil {
				t.Fatalf("%s k=%d: %v", in.name, k, err)
			}
			if !reflect.DeepEqual(resCarried, resGot) {
				t.Fatalf("%s k=%d: the checked allocation's Result %+v, unchecked %+v", in.name, k, resCarried, resGot)
			}
			spilled += resGot.SpilledVars
			checked += n
		}
	}
	if spilled == 0 || checked == 0 {
		t.Fatalf("%d names spilled, %d rewrites checked; the comparison exercised no later round", spilled, checked)
	}
}

// TestAllocateHugeK pins select's register table to the graph, not to K:
// at K = 2^20, with every name colored in one round, AllocateScratch
// allocates far less than one K-sized table, cold on a fresh Scratch and
// warm on the same one again, and returns the reference's Colors.
func TestAllocateHugeK(t *testing.T) {
	_, f := prep(t, pressureSrc)
	const k = 1 << 20
	opt := regalloc.Options{K: k}
	want, err := regalloc.AllocateMatrixReference(f.Clone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var sc regalloc.Scratch
	var got *regalloc.Result
	allocated := func(runs int) uint64 {
		inputs := make([]*ir.Func, runs)
		for i := range inputs {
			inputs[i] = f.Clone()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, g := range inputs {
			if got, err = regalloc.AllocateScratch(g, opt, &sc); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
	}
	cold, warm := allocated(1), allocated(20)
	t.Logf("K=2^20: %d B cold, %d B/run warm", cold, warm)
	if cold >= k/16 {
		t.Errorf("cold AllocateScratch at K=2^20 allocates %d B, want under %d", cold, k/16)
	}
	if warm >= k/64 {
		t.Errorf("warm AllocateScratch at K=2^20 allocates %d B/run, want under %d", warm, k/64)
	}
	if got.SpilledVars != 0 || !reflect.DeepEqual(got.Colors, want.Colors) {
		t.Fatalf("K=2^20: spilled %d, Colors %v; reference %v", got.SpilledVars, got.Colors, want.Colors)
	}
}
