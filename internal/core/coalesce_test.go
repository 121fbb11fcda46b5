package core

import (
	"testing"

	"fastcoalesce/internal/bitset"
	"fastcoalesce/internal/interp"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/ssa"
)

// --- interference oracle -------------------------------------------------
//
// interferenceOracle computes, by brute force, every pair of variables
// that is simultaneously live at some program point (Definition 2.2):
// block-boundary sets plus a backward walk through every block.

func interferenceOracle(f *ir.Func) map[[2]ir.VarID]bool {
	li := liveness.Compute(f)
	nv := f.NumVars()
	out := map[[2]ir.VarID]bool{}
	setOf := func(it liveness.Names) bitset.Set {
		s := bitset.New(nv)
		for v, ok := it.Next(); ok; v, ok = it.Next() {
			s.Add(int(v))
		}
		return s
	}
	markSet := func(s bitset.Set) {
		vars := s.Members()
		for i := 0; i < len(vars); i++ {
			for j := i + 1; j < len(vars); j++ {
				a, b := ir.VarID(vars[i]), ir.VarID(vars[j])
				if a > b {
					a, b = b, a
				}
				out[[2]ir.VarID{a, b}] = true
			}
		}
	}
	for _, b := range f.Blocks {
		// Point after the φ prefix: live-in plus the φ definitions.
		entry := setOf(li.LiveInNames(b.ID))
		for j := 0; j < b.NumPhis(); j++ {
			entry.Add(int(b.Instrs[j].Def))
		}
		markSet(entry)
		// Edge point: live-out of the block (includes φ args it feeds).
		live := setOf(li.LiveOutNames(b.ID))
		markSet(live)
		// Intra-block points, walking backward from live-out.
		for i := len(b.Instrs) - 1; i >= b.NumPhis(); i-- {
			in := &b.Instrs[i]
			if in.Op.HasDef() {
				live.Remove(int(in.Def))
			}
			for _, a := range in.Args {
				live.Add(int(a))
			}
			markSet(live)
		}
	}
	return out
}

// runPipeline builds SSA (pruned, folding) and coalesces, returning stats.
func runPipeline(t *testing.T, f *ir.Func, opt Options) *Stats {
	t.Helper()
	ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
	st := Coalesce(f, opt)
	if f.CountPhis() != 0 {
		t.Fatal("φ-nodes remain after Coalesce")
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify after Coalesce: %v\n%s", err, f)
	}
	return st
}

// checkClassesNonInterfering runs steps 1–3 only and validates every class
// against the brute-force oracle.
func checkClassesNonInterfering(t *testing.T, f *ir.Func, opt Options) {
	t.Helper()
	g := f.Clone()
	ssa.Build(g, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
	c := newCoalescer(g, opt, &Scratch{})
	c.unionPhiResources()
	c.materializeClasses()
	c.resolveInterference()
	oracle := interferenceOracle(g)
	for k, ms := range c.members {
		for i := 0; i < len(ms); i++ {
			for j := i + 1; j < len(ms); j++ {
				a, b := ms[i], ms[j]
				if a > b {
					a, b = b, a
				}
				if oracle[[2]ir.VarID{a, b}] {
					t.Errorf("class %d coalesces interfering %s and %s\n%s",
						k, g.VarName(a), g.VarName(b), g)
				}
			}
		}
	}
}

// differential runs the original program and the coalesced program on the
// given inputs and requires identical results.
func differential(t *testing.T, orig *ir.Func, opt Options, inputs [][]int64, arrays [][]int64) {
	t.Helper()
	for _, in := range inputs {
		want, err := interp.Run(orig, in, arrays, 1_000_000)
		if err != nil {
			t.Fatalf("orig(%v): %v", in, err)
		}
		g := orig.Clone()
		runPipeline(t, g, opt)
		got, err := interp.Run(g, in, arrays, 1_000_000)
		if err != nil {
			t.Fatalf("coalesced(%v): %v\n%s", in, err, g)
		}
		if !interp.SameResult(want, got) {
			t.Fatalf("inputs %v: got %d, want %d\n%s", in, got.Ret, want.Ret, g)
		}
	}
}

// --- test programs --------------------------------------------------------

// buildDiamondPhi: if c { r = 1 } else { r = 2 }; ret r — the φ web is
// copy-free after coalescing.
func buildDiamondPhi(t *testing.T) *ir.Func {
	t.Helper()
	f := ir.NewFunc("diamondphi")
	c, r := f.NewVar("c"), f.NewVar("r")
	f.Params = []ir.VarID{c}
	bld := ir.NewBuilder(f)
	l, rr, j := bld.NewBlock(), bld.NewBlock(), bld.NewBlock()
	bld.Param(c, 0)
	bld.Br(c, l, rr)
	bld.SetBlock(l)
	bld.Const(r, 1)
	bld.Jmp(j)
	bld.SetBlock(rr)
	bld.Const(r, 2)
	bld.Jmp(j)
	bld.SetBlock(j)
	bld.Ret(r)
	return f
}

// buildVirtualSwap is Figure 3a.
func buildVirtualSwap(t *testing.T) *ir.Func {
	t.Helper()
	f := ir.NewFunc("vswap")
	c := f.NewVar("c")
	a, b, x, y, r := f.NewVar("a"), f.NewVar("b"), f.NewVar("x"), f.NewVar("y"), f.NewVar("r")
	f.Params = []ir.VarID{c}
	bld := ir.NewBuilder(f)
	left, right, join := bld.NewBlock(), bld.NewBlock(), bld.NewBlock()
	bld.Param(c, 0)
	bld.Const(a, 1)
	bld.Const(b, 2)
	bld.Br(c, left, right)
	bld.SetBlock(left)
	bld.Copy(x, a)
	bld.Copy(y, b)
	bld.Jmp(join)
	bld.SetBlock(right)
	bld.Copy(x, b)
	bld.Copy(y, a)
	bld.Jmp(join)
	bld.SetBlock(join)
	bld.Binop(ir.OpDiv, r, x, y)
	bld.Ret(r)
	return f
}

// buildLoopSwap swaps x and y every iteration (the swap problem, §3.6).
func buildLoopSwap(t *testing.T) *ir.Func {
	t.Helper()
	f := ir.NewFunc("loopswap")
	n := f.NewVar("n")
	x, y, tmp, i, c, one := f.NewVar("x"), f.NewVar("y"), f.NewVar("tmp"), f.NewVar("i"), f.NewVar("c"), f.NewVar("one")
	f.Params = []ir.VarID{n}
	bld := ir.NewBuilder(f)
	head, body, exit := bld.NewBlock(), bld.NewBlock(), bld.NewBlock()
	bld.Param(n, 0)
	bld.Const(x, 1)
	bld.Const(y, 2)
	bld.Const(i, 0)
	bld.Const(one, 1)
	bld.Jmp(head)
	bld.SetBlock(head)
	bld.Binop(ir.OpCmpLT, c, i, n)
	bld.Br(c, body, exit)
	bld.SetBlock(body)
	bld.Copy(tmp, x)
	bld.Copy(x, y)
	bld.Copy(y, tmp)
	bld.Binop(ir.OpAdd, i, i, one)
	bld.Jmp(head)
	bld.SetBlock(exit)
	bld.Binop(ir.OpMul, tmp, x, one) // use x after the loop (lost copy shape)
	bld.Binop(ir.OpSub, tmp, tmp, y)
	bld.Ret(tmp)
	return f
}

// buildSumLoop: classic reduction; coalescing should remove every copy.
func buildSumLoop(t *testing.T) *ir.Func {
	t.Helper()
	f := ir.NewFunc("sumloop")
	n := f.NewVar("n")
	i, sum, c, one, zero := f.NewVar("i"), f.NewVar("sum"), f.NewVar("c"), f.NewVar("one"), f.NewVar("zero")
	f.Params = []ir.VarID{n}
	bld := ir.NewBuilder(f)
	head, body, exit := bld.NewBlock(), bld.NewBlock(), bld.NewBlock()
	bld.Param(n, 0)
	bld.Const(sum, 0)
	bld.Const(one, 1)
	bld.Const(zero, 0)
	bld.Copy(i, n)
	bld.Jmp(head)
	bld.SetBlock(head)
	bld.Binop(ir.OpCmpGT, c, i, zero)
	bld.Br(c, body, exit)
	bld.SetBlock(body)
	bld.Binop(ir.OpAdd, sum, sum, i)
	bld.Binop(ir.OpSub, i, i, one)
	bld.Jmp(head)
	bld.SetBlock(exit)
	bld.Ret(sum)
	return f
}

var allOptions = map[string]Options{
	"default":       {},
	"no-filters":    {NoFilters: true},
	"naive-pairs":   {NaivePairwise: true},
	"no-filt-naive": {NoFilters: true, NaivePairwise: true},
}

func TestDiamondCoalescesToZeroCopies(t *testing.T) {
	f := buildDiamondPhi(t)
	st := runPipeline(t, f.Clone(), Options{})
	_ = st
	g := buildDiamondPhi(t)
	runPipeline(t, g, Options{})
	if n := g.CountCopies(); n != 0 {
		t.Fatalf("diamond φ needs 0 copies, got %d:\n%s", n, g)
	}
}

func TestSumLoopCoalescesToZeroCopies(t *testing.T) {
	f := buildSumLoop(t)
	differential(t, f, Options{}, [][]int64{{0}, {1}, {10}, {25}}, nil)
	g := f.Clone()
	runPipeline(t, g, Options{})
	if n := g.CountCopies(); n != 0 {
		t.Fatalf("sum loop needs 0 copies, got %d:\n%s", n, g)
	}
}

func TestVirtualSwapCorrectAndMinimal(t *testing.T) {
	f := buildVirtualSwap(t)
	for name, opt := range allOptions {
		t.Run(name, func(t *testing.T) {
			differential(t, f, opt, [][]int64{{0}, {1}}, nil)
			checkClassesNonInterfering(t, f, opt)
		})
	}
	// The New algorithm should beat Standard's 4 copies.
	g := f.Clone()
	ssa.Build(g, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
	std := g.Clone()
	ssa.DestructStandard(std)
	coal := g.Clone()
	Coalesce(coal, Options{})
	if coal.CountCopies() >= std.CountCopies() {
		t.Fatalf("coalesced %d copies, standard %d — no improvement:\n%s",
			coal.CountCopies(), std.CountCopies(), coal)
	}
}

func TestLoopSwapCorrect(t *testing.T) {
	f := buildLoopSwap(t)
	for name, opt := range allOptions {
		t.Run(name, func(t *testing.T) {
			differential(t, f, opt, [][]int64{{0}, {1}, {2}, {3}, {7}}, nil)
			checkClassesNonInterfering(t, f, opt)
		})
	}
}

func TestStatsSanity(t *testing.T) {
	f := buildVirtualSwap(t)
	ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
	st := Coalesce(f, Options{})
	if st.Phis != 2 {
		t.Errorf("Phis = %d, want 2", st.Phis)
	}
	if st.PhiArgs != 4 {
		t.Errorf("PhiArgs = %d, want 4", st.PhiArgs)
	}
	if st.Rounds < 1 {
		t.Errorf("Rounds = %d, want >= 1", st.Rounds)
	}
	if st.CopiesInserted == 0 {
		t.Error("virtual swap requires at least one copy")
	}
	total := st.InitialUnions + st.AlreadyJoined
	for _, h := range st.FilterHits {
		total += h
	}
	if total != st.PhiArgs {
		t.Errorf("unions(%d) + joined(%d) + filter hits(%v) != φ args(%d)",
			st.InitialUnions, st.AlreadyJoined, st.FilterHits, st.PhiArgs)
	}
}

func TestAblationsAgreeOnCorrectness(t *testing.T) {
	for _, build := range []func(*testing.T) *ir.Func{
		buildDiamondPhi, buildVirtualSwap, buildLoopSwap, buildSumLoop,
	} {
		f := build(t)
		for name, opt := range allOptions {
			t.Run(f.Name+"/"+name, func(t *testing.T) {
				differential(t, f, opt, [][]int64{{0}, {1}, {5}}, nil)
			})
		}
	}
}

func TestForestVsNaiveSameCopyCount(t *testing.T) {
	// Lemma 3.1 prunes work, not results: forest and naive pairwise must
	// leave the same number of static copies.
	for _, build := range []func(*testing.T) *ir.Func{
		buildDiamondPhi, buildVirtualSwap, buildLoopSwap, buildSumLoop,
	} {
		f := build(t)
		forest := f.Clone()
		runPipeline(t, forest, Options{})
		naive := f.Clone()
		runPipeline(t, naive, Options{NaivePairwise: true})
		if forest.CountCopies() != naive.CountCopies() {
			t.Errorf("%s: forest %d copies, naive %d copies",
				f.Name, forest.CountCopies(), naive.CountCopies())
		}
	}
}
