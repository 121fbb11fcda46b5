package regalloc_test

import (
	"testing"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/core"
	"fastcoalesce/internal/interp"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/regalloc"
	"fastcoalesce/internal/ssa"
)

// prep compiles source, destructs SSA with the paper's coalescer, and
// returns original + φ-free function.
func prep(t *testing.T, src string) (orig, f *ir.Func) {
	t.Helper()
	orig, err := lang.CompileOne(src)
	if err != nil {
		t.Fatal(err)
	}
	f = orig.Clone()
	ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
	core.Coalesce(f, core.Options{})
	return orig, f
}

const pressureSrc = `
func pressure(a int, b int) int {
	var c int = a + b
	var d int = a - b
	var e int = a * b
	var g int = a / (b + 1)
	var h int = c + d
	var i int = e + g
	var j int = c * e
	var k int = d * g
	return h + i + j + k + a + b
}`

func TestAllocateNoSpillWhenWide(t *testing.T) {
	_, f := prep(t, pressureSrc)
	res, err := regalloc.Allocate(f, regalloc.Options{K: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledVars != 0 {
		t.Fatalf("32 registers should not spill, spilled %d", res.SpilledVars)
	}
	if err := regalloc.VerifyAllocation(f, res.Colors, 32); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateSpillsUnderPressure(t *testing.T) {
	orig, f := prep(t, pressureSrc)
	res, err := regalloc.Allocate(f, regalloc.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledVars == 0 {
		t.Fatal("K=3 must spill on this function")
	}
	if err := regalloc.VerifyAllocation(f, res.Colors, 3); err != nil {
		t.Fatal(err)
	}
	// Spilled code still computes the same result.
	for _, args := range [][]int64{{3, 4}, {-7, 9}, {0, 0}} {
		want, _ := interp.Run(orig, args, nil, 1_000_000)
		got, err := interp.Run(f, args, nil, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !interp.SameResult(want, got) {
			t.Fatalf("spilled code: f(%v) = %d, want %d", args, got.Ret, want.Ret)
		}
	}
}

func TestAllocateRejectsBadK(t *testing.T) {
	_, f := prep(t, pressureSrc)
	if _, err := regalloc.Allocate(f, regalloc.Options{K: 1}); err == nil {
		t.Fatal("K=1 accepted")
	}
}

func TestAllocateOnWorkloadSuite(t *testing.T) {
	for _, w := range bench.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			orig, err := bench.CompileWorkload(w)
			if err != nil {
				t.Fatal(err)
			}
			f := orig.Clone()
			ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
			core.Coalesce(f, core.Options{})
			for _, k := range []int{6, 16} {
				g := f.Clone()
				res, err := regalloc.Allocate(g, regalloc.Options{K: k})
				if err != nil {
					t.Fatalf("K=%d: %v", k, err)
				}
				if err := regalloc.VerifyAllocation(g, res.Colors, k); err != nil {
					t.Fatalf("K=%d: %v", k, err)
				}
				if err := bench.CheckAgainstOriginal(orig, g, w); err != nil {
					t.Fatalf("K=%d: %v", k, err)
				}
			}
		})
	}
}

// TestAllocateScratchHistoryIndependent pins that a warm Scratch produces
// byte-identical allocations to a cold one. The batch driver keeps one
// Scratch per worker, so any dependence on inherited table capacity (for
// example, spill stamps lost when a mid-call growth reallocates) makes
// compiled output vary with the worker schedule.
func TestAllocateScratchHistoryIndependent(t *testing.T) {
	build := func(src string) *ir.Func {
		f, err := lang.CompileOne(src)
		if err != nil {
			t.Fatal(err)
		}
		ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
		core.Coalesce(f, core.Options{})
		return f
	}
	// Warm a scratch on a large spilling function so its reused capacity
	// dwarfs anything the small functions below would allocate cold.
	warm := &regalloc.Scratch{}
	big := bench.Generate(7, bench.GenConfig{Stmts: 150, MaxDepth: 4, Scalars: 3, Arrays: 2})
	if _, err := regalloc.AllocateScratch(build(big.Src), regalloc.Options{K: 4}, warm); err != nil {
		t.Fatalf("warming allocation: %v", err)
	}
	for seed := int64(0); seed < 25; seed++ {
		w := bench.Generate(seed, bench.GenConfig{Stmts: 40, MaxDepth: 3, Scalars: 2, Arrays: 1})
		f := build(w.Src)
		cold := f.Clone()
		resCold, errCold := regalloc.AllocateScratch(cold, regalloc.Options{K: 4}, &regalloc.Scratch{})
		reused := f.Clone()
		resWarm, errWarm := regalloc.AllocateScratch(reused, regalloc.Options{K: 4}, warm)
		if (errCold == nil) != (errWarm == nil) {
			t.Fatalf("seed %d: cold err %v, warm err %v", seed, errCold, errWarm)
		}
		if errCold != nil {
			continue
		}
		if resCold.SpilledVars != resWarm.SpilledVars || resCold.SpillSlots != resWarm.SpillSlots ||
			resCold.Rounds != resWarm.Rounds {
			t.Fatalf("seed %d: cold spilled %d/%d slots in %d rounds, warm %d/%d in %d",
				seed, resCold.SpilledVars, resCold.SpillSlots, resCold.Rounds,
				resWarm.SpilledVars, resWarm.SpillSlots, resWarm.Rounds)
		}
		if cold.String() != reused.String() {
			t.Fatalf("seed %d: allocated output differs between cold and warm Scratch", seed)
		}
	}
}

func TestFuzzAllocator(t *testing.T) {
	seeds := int64(30)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < seeds; seed++ {
		w := bench.Generate(seed, bench.GenConfig{Stmts: 30, MaxDepth: 3, Scalars: 2, Arrays: 1})
		orig, err := lang.CompileOne(w.Src)
		if err != nil {
			t.Fatal(err)
		}
		f := orig.Clone()
		ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
		core.Coalesce(f, core.Options{})
		res, err := regalloc.Allocate(f, regalloc.Options{K: 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := regalloc.VerifyAllocation(f, res.Colors, 4); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := bench.CheckAgainstOriginal(orig, f, w); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
