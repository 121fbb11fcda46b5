package liveness

import (
	"math/rand"
	"testing"

	"fastcoalesce/internal/ir"
)

func TestStraightLine(t *testing.T) {
	// b0: x = 1; y = x + x; ret y
	f := ir.NewFunc("s")
	x, y := f.NewVar("x"), f.NewVar("y")
	bld := ir.NewBuilder(f)
	bld.Const(x, 1)
	bld.Binop(ir.OpAdd, y, x, x)
	bld.Ret(y)
	li := Compute(f)
	if li.LiveIn(0, x) || li.LiveIn(0, y) {
		t.Fatal("nothing is live-in to the entry")
	}
	it := li.LiveOutNames(0)
	if v, ok := it.Next(); ok {
		t.Fatalf("%s is live-out of a returning block; nothing should be", f.VarName(v))
	}
}

func TestDiamondUse(t *testing.T) {
	// b0: x=1; c=0; br c b1 b2
	// b1: y=x; jmp b3      b2: y=2; jmp b3
	// b3: ret y
	f := ir.NewFunc("d")
	x, y, c := f.NewVar("x"), f.NewVar("y"), f.NewVar("c")
	bld := ir.NewBuilder(f)
	b1, b2, b3 := bld.NewBlock(), bld.NewBlock(), bld.NewBlock()
	bld.Const(x, 1)
	bld.Const(c, 0)
	bld.Br(c, b1, b2)
	bld.SetBlock(b1)
	bld.Copy(y, x)
	bld.Jmp(b3)
	bld.SetBlock(b2)
	bld.Const(y, 2)
	bld.Jmp(b3)
	bld.SetBlock(b3)
	bld.Ret(y)

	li := Compute(f)
	if !li.LiveOut(0, x) {
		t.Error("x should be live-out of b0 (used in b1)")
	}
	if !li.LiveIn(b1.ID, x) {
		t.Error("x should be live-in to b1")
	}
	if li.LiveIn(b2.ID, x) {
		t.Error("x should not be live-in to b2")
	}
	if !li.LiveIn(b3.ID, y) {
		t.Error("y should be live-in to b3")
	}
	if li.LiveOut(b3.ID, y) {
		t.Error("y should not be live-out of the exit block")
	}
	if li.LiveOut(0, c) {
		t.Error("c dies at the branch; not live-out of b0")
	}
}

func TestLoopCarried(t *testing.T) {
	// b0: i=0; n=10; jmp b1
	// b1: c = i < n; br c b2 b3
	// b2: i = i + 1 (as i2=i+1; i=i2); jmp b1
	// b3: ret i
	f := ir.NewFunc("loop")
	i, n, c, i2 := f.NewVar("i"), f.NewVar("n"), f.NewVar("c"), f.NewVar("i2")
	bld := ir.NewBuilder(f)
	b1, b2, b3 := bld.NewBlock(), bld.NewBlock(), bld.NewBlock()
	bld.Const(i, 0)
	bld.Const(n, 10)
	bld.Jmp(b1)
	bld.SetBlock(b1)
	bld.Binop(ir.OpCmpLT, c, i, n)
	bld.Br(c, b2, b3)
	bld.SetBlock(b2)
	bld.Binop(ir.OpAdd, i2, i, i)
	bld.Copy(i, i2)
	bld.Jmp(b1)
	bld.SetBlock(b3)
	bld.Ret(i)

	li := Compute(f)
	// n is live around the whole loop.
	for _, b := range []ir.BlockID{0, b1.ID, b2.ID} {
		if !li.LiveOut(b, n) {
			t.Errorf("n should be live-out of b%d", b)
		}
	}
	if !li.LiveIn(b1.ID, i) || !li.LiveIn(b2.ID, i) || !li.LiveIn(b3.ID, i) {
		t.Error("i should be live-in throughout the loop")
	}
	if li.LiveIn(b1.ID, i2) {
		t.Error("i2 is local to b2; not live-in to b1")
	}
}

func TestPhiConvention(t *testing.T) {
	// b0: a=1; b=2; c=0; br c b1 b2
	// b1: jmp b3      b2: jmp b3
	// b3: p = phi(b1:a, b2:b); ret p
	f := ir.NewFunc("phi")
	a, b, c, p := f.NewVar("a"), f.NewVar("b"), f.NewVar("c"), f.NewVar("p")
	bld := ir.NewBuilder(f)
	b1, b2, b3 := bld.NewBlock(), bld.NewBlock(), bld.NewBlock()
	bld.Const(a, 1)
	bld.Const(b, 2)
	bld.Const(c, 0)
	bld.Br(c, b1, b2)
	bld.SetBlock(b1)
	bld.Jmp(b3)
	bld.SetBlock(b2)
	bld.Jmp(b3)
	bld.SetBlock(b3)
	bld.Ret(p)
	ir.Phi(b3, p, []ir.VarID{a, b})
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}

	li := Compute(f)
	// φ args are live-out of the corresponding predecessor…
	if !li.LiveOut(b1.ID, a) {
		t.Error("a should be live-out of b1 (φ use on edge)")
	}
	if !li.LiveOut(b2.ID, b) {
		t.Error("b should be live-out of b2 (φ use on edge)")
	}
	// …but not of the other predecessor…
	if li.LiveOut(b1.ID, b) {
		t.Error("b must not be live-out of b1")
	}
	if li.LiveOut(b2.ID, a) {
		t.Error("a must not be live-out of b2")
	}
	// …and NOT live-in to the φ block (the paper's distinguishing rule).
	if li.LiveIn(b3.ID, a) || li.LiveIn(b3.ID, b) {
		t.Error("φ args must not be live-in to the φ block")
	}
	// The φ def is not live-in to its own block either.
	if li.LiveIn(b3.ID, p) {
		t.Error("φ def must not be live-in to its block")
	}
}

func TestPhiArgAlsoDirectUse(t *testing.T) {
	// Same as above, but b3 also uses a directly: then a IS live-in to b3.
	f := ir.NewFunc("phi2")
	a, b, c, p, q := f.NewVar("a"), f.NewVar("b"), f.NewVar("c"), f.NewVar("p"), f.NewVar("q")
	bld := ir.NewBuilder(f)
	b1, b2, b3 := bld.NewBlock(), bld.NewBlock(), bld.NewBlock()
	bld.Const(a, 1)
	bld.Const(b, 2)
	bld.Const(c, 0)
	bld.Br(c, b1, b2)
	bld.SetBlock(b1)
	bld.Jmp(b3)
	bld.SetBlock(b2)
	bld.Jmp(b3)
	bld.SetBlock(b3)
	bld.Binop(ir.OpAdd, q, p, a) // direct use of a in b3
	bld.Ret(q)
	ir.Phi(b3, p, []ir.VarID{a, b})

	li := Compute(f)
	if !li.LiveIn(b3.ID, a) {
		t.Error("a has a direct use in b3; it must be live-in")
	}
	if li.LiveIn(b3.ID, b) {
		t.Error("b flows only into the φ; not live-in")
	}
	// a is now live-out of BOTH predecessors.
	if !li.LiveOut(b1.ID, a) || !li.LiveOut(b2.ID, a) {
		t.Error("a should be live-out of both preds")
	}
}

func TestLoopPhi(t *testing.T) {
	// SSA-shaped loop:
	// b0: i0=0; jmp b1
	// b1: i1=phi(b0:i0, b2:i2); c=i1<i1; br c b2 b3
	// b2: i2=i1+i1; jmp b1
	// b3: ret i1
	f := ir.NewFunc("loopphi")
	i0, i1, i2, c := f.NewVar("i0"), f.NewVar("i1"), f.NewVar("i2"), f.NewVar("c")
	bld := ir.NewBuilder(f)
	b1, b2, b3 := bld.NewBlock(), bld.NewBlock(), bld.NewBlock()
	bld.Const(i0, 0)
	bld.Jmp(b1)
	bld.SetBlock(b1)
	bld.Binop(ir.OpCmpLT, c, i1, i1)
	bld.Br(c, b2, b3)
	bld.SetBlock(b2)
	bld.Binop(ir.OpAdd, i2, i1, i1)
	bld.Jmp(b1)
	bld.SetBlock(b3)
	bld.Ret(i1)
	ir.Phi(b1, i1, []ir.VarID{i0, i2})

	li := Compute(f)
	if !li.LiveOut(0, i0) {
		t.Error("i0 live-out of b0 (φ edge use)")
	}
	if !li.LiveOut(b2.ID, i2) {
		t.Error("i2 live-out of b2 (φ edge use)")
	}
	if li.LiveIn(b1.ID, i0) || li.LiveIn(b1.ID, i2) {
		t.Error("φ args not live-in to loop header")
	}
	if !li.LiveOut(b1.ID, i1) {
		t.Error("i1 live-out of header (used in b2 and b3)")
	}
	if li.LiveOut(b3.ID, i1) {
		t.Error("nothing live-out of exit")
	}
}

// TestGlobalNames pins which names get a bit, under both solvers. A
// block-local temporary gets none and is live nowhere, even when it is
// redefined and used again in a second block; a φ argument with no
// direct use gets one, because it is live out of its predecessor.
//
//	b0: a=1; c=0; t=a+a; b=t; br c b1 b2
//	b1: jmp b3      b2: c=2; t=c+c; jmp b3
//	b3: p = phi(b1:a, b2:b); ret p
func TestGlobalNames(t *testing.T) {
	f := ir.NewFunc("globals")
	a, c, tmp, b, p := f.NewVar("a"), f.NewVar("c"), f.NewVar("t"), f.NewVar("b"), f.NewVar("p")
	bld := ir.NewBuilder(f)
	b1, b2, b3 := bld.NewBlock(), bld.NewBlock(), bld.NewBlock()
	bld.Const(a, 1)
	bld.Const(c, 0)
	bld.Binop(ir.OpAdd, tmp, a, a)
	bld.Copy(b, tmp)
	bld.Br(c, b1, b2)
	bld.SetBlock(b1)
	bld.Jmp(b3)
	bld.SetBlock(b2)
	bld.Const(c, 2)
	bld.Binop(ir.OpAdd, tmp, c, c)
	bld.Jmp(b3)
	bld.SetBlock(b3)
	bld.Ret(p)
	ir.Phi(b3, p, []ir.VarID{a, b})
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}

	for _, solver := range solvers {
		li := solver.compute(f, &Scratch{})
		if len(li.names) != 2 || li.names[0] != a || li.names[1] != b {
			t.Fatalf("%s: global names %v, want [a b] in VarID order", solver.name, li.names)
		}
		for _, v := range []ir.VarID{c, tmp, p} {
			if li.bit[v] >= 0 {
				t.Errorf("%s: block-local %s got bit %d", solver.name, f.VarName(v), li.bit[v])
			}
			for _, blk := range f.Blocks {
				if li.LiveIn(blk.ID, v) || li.LiveOut(blk.ID, v) {
					t.Errorf("%s: block-local %s live at a boundary of b%d", solver.name, f.VarName(v), blk.ID)
				}
			}
		}
		if !li.LiveOut(b2.ID, b) || !li.LiveOut(0, b) || !li.LiveIn(b2.ID, b) {
			t.Errorf("%s: φ-only b must be live out of b0 and through b2", solver.name)
		}
		if li.LiveOut(b1.ID, b) || li.LiveIn(b3.ID, b) {
			t.Errorf("%s: φ-only b must not be live out of b1 or into b3", solver.name)
		}
		it := li.LiveOutNames(0)
		var got []ir.VarID
		for v, ok := it.Next(); ok; v, ok = it.Next() {
			got = append(got, v)
		}
		if len(got) != 2 || got[0] != a || got[1] != b {
			t.Errorf("%s: LiveOutNames(b0) = %v, want [a b]", solver.name, got)
		}
	}
}

// TestScratchReuseAcrossSizes warms one Scratch on a large function and
// then runs it on a small one, and the reverse, under both solvers. The
// name -> bit table and the sets carry over between runs, so every answer
// and the work statistics must equal a fresh Scratch's.
func TestScratchReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(6060))
	large := randomCFGWithPhis(rng, 200, 40)
	addBlockLocals(rng, large)
	small := randomCFGWithPhis(rng, 6, 3)
	addBlockLocals(rng, small)
	for _, solver := range solvers {
		for _, seq := range [][2]*ir.Func{{large, small}, {small, large}} {
			var sc Scratch
			for _, f := range seq {
				got := solver.compute(f, &sc)
				var fresh Scratch
				want := solver.compute(f, &fresh)
				if sc.LastStats() != fresh.LastStats() {
					t.Errorf("%s, %d blocks after reuse: stats %+v, fresh %+v",
						solver.name, len(f.Blocks), sc.LastStats(), fresh.LastStats())
				}
				for _, b := range f.Blocks {
					for v := ir.VarID(0); int(v) < f.NumVars(); v++ {
						if got.LiveIn(b.ID, v) != want.LiveIn(b.ID, v) ||
							got.LiveOut(b.ID, v) != want.LiveOut(b.ID, v) {
							t.Fatalf("%s, %d blocks after reuse: b%d %s differs from a fresh Scratch",
								solver.name, len(f.Blocks), b.ID, f.VarName(v))
						}
					}
				}
			}
		}
	}
}
