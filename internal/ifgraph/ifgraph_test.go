package ifgraph

import (
	"testing"

	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/interp"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/ssa"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(1, 3)
	g.AddEdge(3, 1) // duplicate
	g.AddEdge(0, 4)
	if !g.Interfere(1, 3) || !g.Interfere(3, 1) {
		t.Fatal("edge 1-3 missing or asymmetric")
	}
	if g.Interfere(1, 4) || g.Interfere(2, 2) {
		t.Fatal("phantom edges")
	}
	if g.Degree(1) != 1 || g.Degree(3) != 1 {
		t.Fatalf("duplicate AddEdge changed degrees: %d, %d", g.Degree(1), g.Degree(3))
	}
	g.Merge(1, 0) // 1 inherits 0's neighbors (4)
	if !g.Interfere(1, 4) {
		t.Fatal("Merge did not propagate edges")
	}
	if g.Interfere(0, 1) {
		t.Fatal("Merge created self-ish edge")
	}
}

func TestGraphMatrixBytes(t *testing.T) {
	g := NewGraph(1000)
	// 1000*999/2 bits = 499500 bits -> 62440 bytes, rounded up to words.
	want := int64((1000*999/2 + 63) / 64 * 8)
	if g.MatrixBytes != want {
		t.Fatalf("MatrixBytes = %d, want %d", g.MatrixBytes, want)
	}
}

func TestBuildSimpleInterference(t *testing.T) {
	// x = 1; y = 2; z = x + y; ret z  — x and y interfere; z interferes
	// with neither (born as they die).
	f := ir.NewFunc("t")
	x, y, z := f.NewVar("x"), f.NewVar("y"), f.NewVar("z")
	bld := ir.NewBuilder(f)
	bld.Const(x, 1)
	bld.Const(y, 2)
	bld.Binop(ir.OpAdd, z, x, y)
	bld.Ret(z)
	g := Build(f, liveness.Compute(f), BuildOptions{})
	if !g.Interfere(int32(x), int32(y)) {
		t.Fatal("x and y must interfere")
	}
	if g.Interfere(int32(x), int32(z)) || g.Interfere(int32(y), int32(z)) {
		t.Fatal("z interferes with dead values")
	}
}

func TestBuildCopyExemption(t *testing.T) {
	// a = 1; b = a; c = b + a: the copy b = a must NOT make a and b
	// interfere (Chaitin's special case), even though a is live across it.
	f := ir.NewFunc("t")
	a, b, c := f.NewVar("a"), f.NewVar("b"), f.NewVar("c")
	bld := ir.NewBuilder(f)
	bld.Const(a, 1)
	bld.Copy(b, a)
	bld.Binop(ir.OpAdd, c, b, a)
	bld.Ret(c)
	g := Build(f, liveness.Compute(f), BuildOptions{})
	if g.Interfere(int32(a), int32(b)) {
		t.Fatal("copy source/destination must not interfere here")
	}
}

func TestBuildCopyRealInterference(t *testing.T) {
	// b = a; a = 2; d = a + b: b and the *new* a do interfere.
	f := ir.NewFunc("t")
	a, b, d := f.NewVar("a"), f.NewVar("b"), f.NewVar("d")
	bld := ir.NewBuilder(f)
	bld.Const(a, 1)
	bld.Copy(b, a)
	bld.Const(a, 2)
	bld.Binop(ir.OpAdd, d, a, b)
	bld.Ret(d)
	g := Build(f, liveness.Compute(f), BuildOptions{})
	if !g.Interfere(int32(a), int32(b)) {
		t.Fatal("b must interfere with the redefined a")
	}
}

const swapSrc = `
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

const reduceSrc = `
func reduce(n int) int {
	var s int = 0
	for var i = 0; i < n; i = i + 1 {
		s = s + i
	}
	return s
}`

const branchy = `
func branchy(a int, b int) int {
	var r int = 0
	if a > b && a > 0 {
		r = a
	} else if b > 0 || a < -10 {
		r = b
	} else {
		r = a + b
	}
	return r * 2
}`

func compileNoFold(t *testing.T, src string) *ir.Func {
	t.Helper()
	f, err := lang.CompileOne(src)
	if err != nil {
		t.Fatal(err)
	}
	ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: false})
	return f
}

func TestJoinPhiWebs(t *testing.T) {
	for _, src := range []string{swapSrc, reduceSrc, branchy} {
		orig, err := lang.CompileOne(src)
		if err != nil {
			t.Fatal(err)
		}
		copiesBefore := orig.CountCopies()
		f := orig.Clone()
		ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: false})
		JoinPhiWebs(f)
		if f.CountPhis() != 0 {
			t.Fatalf("%s: φs remain", f.Name)
		}
		if err := f.Verify(); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		// Live-range identification inserts no copies.
		if got := f.CountCopies(); got != copiesBefore {
			t.Fatalf("%s: copies %d -> %d (web join must not add copies)",
				f.Name, copiesBefore, got)
		}
		for _, args := range [][]int64{{0, 0}, {1, 5}, {7, -3}, {4, 4}} {
			args := args[:len(orig.Params)]
			want, err := interp.Run(orig, args, nil, 100000)
			if err != nil {
				t.Fatal(err)
			}
			got, err := interp.Run(f, args, nil, 100000)
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			if !interp.SameResult(want, got) {
				t.Fatalf("%s(%v): got %d want %d", f.Name, args, got.Ret, want.Ret)
			}
		}
	}
}

func TestCoalesceRemovesDeadCopy(t *testing.T) {
	// b = a with a dead afterwards: always coalescible.
	f, err := lang.CompileOne(`
func f(a int) int {
	var b int = a
	return b + 1
}`)
	if err != nil {
		t.Fatal(err)
	}
	ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: false})
	JoinPhiWebs(f)
	cs := Coalesce(f, Options{})
	if f.CountCopies() != 0 {
		t.Fatalf("copy not coalesced:\n%s", f)
	}
	if cs.CopiesCoalesced < 1 {
		t.Fatalf("CopiesCoalesced = %d", cs.CopiesCoalesced)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceKeepsNecessaryCopies(t *testing.T) {
	// The loop swap: at least one move per iteration is unavoidable.
	f := compileNoFold(t, swapSrc)
	JoinPhiWebs(f)
	Coalesce(f, Options{})
	if f.CountCopies() == 0 {
		t.Fatalf("swap lost all its copies:\n%s", f)
	}
	orig, _ := lang.CompileOne(swapSrc)
	for _, n := range []int64{0, 1, 2, 3, 8} {
		want, _ := interp.Run(orig, []int64{n}, nil, 100000)
		got, err := interp.Run(f, []int64{n}, nil, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if !interp.SameResult(want, got) {
			t.Fatalf("swap(%d): got %d want %d\n%s", n, got.Ret, want.Ret, f)
		}
	}
}

func TestImprovedMatchesOriginal(t *testing.T) {
	for _, src := range []string{swapSrc, reduceSrc, branchy} {
		base := compileNoFold(t, src)
		JoinPhiWebs(base)

		orig := base.Clone()
		csO := Coalesce(orig, Options{Improved: false})
		impr := base.Clone()
		csI := Coalesce(impr, Options{Improved: true})

		if orig.CountCopies() != impr.CountCopies() {
			t.Fatalf("%s: Briggs %d copies, Briggs* %d copies (must match)",
				base.Name, orig.CountCopies(), impr.CountCopies())
		}
		if csI.TotalMatrixBytes() > csO.TotalMatrixBytes() {
			t.Fatalf("%s: Briggs* matrix %d > Briggs %d",
				base.Name, csI.TotalMatrixBytes(), csO.TotalMatrixBytes())
		}
	}
}

func TestCoalesceWithLoopDepth(t *testing.T) {
	f := compileNoFold(t, swapSrc)
	JoinPhiWebs(f)
	dt := dom.New(f)
	li := dt.FindLoops()
	cs := Coalesce(f, Options{Improved: true, Depth: li.Depth})
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(cs.Passes) < 1 {
		t.Fatal("no passes recorded")
	}
}
