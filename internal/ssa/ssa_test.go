package ssa

import (
	"testing"

	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/interp"
	"fastcoalesce/internal/ir"
)

// checkSSAForm verifies the single-assignment property and that every
// non-φ use is dominated by its definition.
func checkSSAForm(t *testing.T, f *ir.Func) {
	t.Helper()
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	defBlock := make([]ir.BlockID, f.NumVars())
	for i := range defBlock {
		defBlock[i] = ir.NoBlock
	}
	defPos := make([]int, f.NumVars())
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.Op.HasDef() {
				continue
			}
			if defBlock[in.Def] != ir.NoBlock {
				t.Fatalf("%s defined twice (b%d and b%d)", f.VarName(in.Def), defBlock[in.Def], b.ID)
			}
			defBlock[in.Def] = b.ID
			defPos[in.Def] = i
		}
	}
	dt := dom.New(f)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for ai, a := range in.Args {
				db := defBlock[a]
				if db == ir.NoBlock {
					t.Fatalf("use of undefined %s in b%d", f.VarName(a), b.ID)
				}
				if in.Op == ir.OpPhi {
					// The use happens on the edge from pred ai; the def
					// must dominate that pred.
					pred := b.Preds[ai]
					if !dt.Dominates(db, pred) {
						t.Fatalf("φ arg %s (def b%d) does not dominate pred b%d", f.VarName(a), db, pred)
					}
					continue
				}
				if db == b.ID {
					if defPos[a] >= i {
						t.Fatalf("use of %s before its def in b%d", f.VarName(a), b.ID)
					}
				} else if !dt.StrictlyDominates(db, b.ID) {
					t.Fatalf("def of %s (b%d) does not dominate use (b%d)", f.VarName(a), db, b.ID)
				}
			}
		}
	}
}

// buildSumLoop: sum = 0; i = n; while i > 0 { sum = sum + i; i = i - 1 }; ret sum
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
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	return f
}

// buildVirtualSwap is Figure 3a of the paper:
//
//	a = 1; b = 2
//	if c { x = a; y = b } else { x = b; y = a }
//	return x / y
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
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBuildPrunedLoop(t *testing.T) {
	f := buildSumLoop(t)
	st := Build(f, Options{Flavor: Pruned, FoldCopies: true})
	checkSSAForm(t, f)
	if st.CopiesFolded != 1 {
		t.Errorf("CopiesFolded = %d, want 1 (i = n)", st.CopiesFolded)
	}
	if f.CountCopies() != 0 {
		t.Errorf("copies remain after folding: %d", f.CountCopies())
	}
	// The loop header needs φs for i and sum.
	if st.PhisInserted != 2 {
		t.Errorf("PhisInserted = %d, want 2", st.PhisInserted)
	}
}

func TestBuildPreservesSemantics(t *testing.T) {
	orig := buildSumLoop(t)
	want, err := interp.Run(orig, []int64{25}, nil, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for _, fold := range []bool{false, true} {
		for _, fl := range []Flavor{Minimal, SemiPruned, Pruned} {
			f := orig.Clone()
			Build(f, Options{Flavor: fl, FoldCopies: fold})
			checkSSAForm(t, f)
			got, err := interp.Run(f, []int64{25}, nil, 100000)
			if err != nil {
				t.Fatalf("%v fold=%v: %v", fl, fold, err)
			}
			if !interp.SameResult(want, got) {
				t.Fatalf("%v fold=%v: Ret = %d, want %d", fl, fold, got.Ret, want.Ret)
			}
		}
	}
}

func TestFlavorPhiCounts(t *testing.T) {
	orig := buildVirtualSwap(t)
	counts := map[Flavor]int{}
	for _, fl := range []Flavor{Minimal, SemiPruned, Pruned} {
		f := orig.Clone()
		st := Build(f, Options{Flavor: fl, FoldCopies: true})
		checkSSAForm(t, f)
		counts[fl] = st.PhisInserted
	}
	if counts[Minimal] < counts[SemiPruned] || counts[SemiPruned] < counts[Pruned] {
		t.Fatalf("φ counts not monotone: minimal=%d semi=%d pruned=%d",
			counts[Minimal], counts[SemiPruned], counts[Pruned])
	}
}

func TestVirtualSwapSSAShape(t *testing.T) {
	f := buildVirtualSwap(t)
	st := Build(f, Options{Flavor: Pruned, FoldCopies: true})
	checkSSAForm(t, f)
	// All four copies fold; the join gets two φs (Figure 3b).
	if st.CopiesFolded != 4 {
		t.Errorf("CopiesFolded = %d, want 4", st.CopiesFolded)
	}
	if st.PhisInserted != 2 {
		t.Errorf("PhisInserted = %d, want 2", st.PhisInserted)
	}
}

func TestStrictnessEnforcement(t *testing.T) {
	// y is used before any definition on the fallthrough path.
	f := ir.NewFunc("nonstrict")
	c, y := f.NewVar("c"), f.NewVar("y")
	f.Params = []ir.VarID{c}
	bld := ir.NewBuilder(f)
	setit, join := bld.NewBlock(), bld.NewBlock()
	bld.Param(c, 0)
	bld.Br(c, setit, join)
	bld.SetBlock(setit)
	bld.Const(y, 7)
	bld.Jmp(join)
	bld.SetBlock(join)
	bld.Ret(y)

	g := f.Clone()
	st := Build(g, Options{Flavor: Pruned, FoldCopies: true})
	checkSSAForm(t, g)
	if st.InitsInserted != 1 {
		t.Fatalf("InitsInserted = %d, want 1 (y)", st.InitsInserted)
	}
	res, err := interp.Run(g, []int64{0}, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 0 {
		t.Fatalf("undefined path returns %d, want 0", res.Ret)
	}
	res, err = interp.Run(g, []int64{1}, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 7 {
		t.Fatalf("defined path returns %d, want 7", res.Ret)
	}
}

func TestDestructStandardRoundTrip(t *testing.T) {
	for name, build := range map[string]func(*testing.T) *ir.Func{
		"sumloop": buildSumLoop,
		"vswap":   buildVirtualSwap,
	} {
		orig := build(t)
		inputs := [][]int64{{0}, {1}, {5}, {25}}
		for _, in := range inputs {
			want, err := interp.Run(orig, in, nil, 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			f := orig.Clone()
			Build(f, Options{Flavor: Pruned, FoldCopies: true})
			DestructStandard(f)
			if f.CountPhis() != 0 {
				t.Fatalf("%s: φs remain after destruction", name)
			}
			if err := f.Verify(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := interp.Run(f, in, nil, 1_000_000)
			if err != nil {
				t.Fatalf("%s(%v): %v", name, in, err)
			}
			if !interp.SameResult(want, got) {
				t.Fatalf("%s(%v): Ret = %d, want %d", name, in, got.Ret, want.Ret)
			}
		}
	}
}

func TestDestructInsertsOneCopyPerPhiArg(t *testing.T) {
	f := buildVirtualSwap(t)
	Build(f, Options{Flavor: Pruned, FoldCopies: true})
	st := DestructStandard(f)
	// 2 φs × 2 args = 4 copies (plus temporaries if cycles arose).
	if st.CopiesInserted < 4 {
		t.Fatalf("CopiesInserted = %d, want >= 4", st.CopiesInserted)
	}
}

func TestSemiPrunedGlobalsOnly(t *testing.T) {
	// v is block-local (defined and used only inside the branch arm), u is
	// global (crosses a block boundary). Semi-pruned SSA must place φs for
	// u's web but never for v.
	f := ir.NewFunc("semi")
	c, u, v, r := f.NewVar("c"), f.NewVar("u"), f.NewVar("v"), f.NewVar("r")
	f.Params = []ir.VarID{c}
	bld := ir.NewBuilder(f)
	arm, join := bld.NewBlock(), bld.NewBlock()
	bld.Param(c, 0)
	bld.Const(u, 1)
	bld.Br(c, arm, join)
	bld.SetBlock(arm)
	bld.Const(v, 5)              // local def
	bld.Binop(ir.OpAdd, u, v, v) // local use of v; u redefined (global)
	bld.Jmp(join)
	bld.SetBlock(join)
	bld.Copy(r, u)
	bld.Ret(r)

	g := f.Clone()
	Build(g, Options{Flavor: SemiPruned, FoldCopies: false})
	checkSSAForm(t, g)
	for _, b := range g.Blocks {
		for i := 0; i < b.NumPhis(); i++ {
			name := g.VarName(b.Instrs[i].Def)
			if name[0] == 'v' && name[1] == '.' {
				t.Fatalf("semi-pruned placed a φ for the local variable v:\n%s", g)
			}
		}
	}
	// u must have gotten a φ at the join.
	if g.CountPhis() == 0 {
		t.Fatalf("no φ for the global u:\n%s", g)
	}
}

func TestParseFlavor(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Flavor
	}{{"pruned", Pruned}, {"semi", SemiPruned}, {"minimal", Minimal}} {
		got, err := ParseFlavor(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseFlavor(%q) = %v, %v", tc.in, got, err)
		}
		// String's spelling round-trips.
		if back, err := ParseFlavor(got.String()); err != nil || back != got {
			t.Errorf("ParseFlavor(%q) = %v, %v", got.String(), back, err)
		}
	}
	if _, err := ParseFlavor("maximal"); err == nil {
		t.Error("ParseFlavor accepted junk")
	}
}
