package liveness

// Differential tests for the sparse per-variable solver against BOTH
// dense solvers: the least fixpoint is unique, so all three must agree
// bit-for-bit on every (block, variable) point — on reachable CFGs, on
// CFGs with unreachable blocks (whose sets must stay empty), and on
// irreducible regions where traversal orders diverge the most.

import (
	"math/rand"
	"testing"

	"fastcoalesce/internal/ir"
)

// assertSparseSame compares the sparse solver against the worklist and
// round-robin solvers on f point by point.
func assertSparseSame(t *testing.T, f *ir.Func, label string) {
	t.Helper()
	var ssc, wsc, rsc Scratch
	sp := ComputeSparseScratch(f, &ssc)
	wl := ComputeScratch(f, &wsc)
	rr := ComputeRoundRobinScratch(f, &rsc)
	for b := range f.Blocks {
		bid := ir.BlockID(b)
		for v := ir.VarID(0); int(v) < f.NumVars(); v++ {
			if sp.LiveIn(bid, v) != wl.LiveIn(bid, v) || sp.LiveIn(bid, v) != rr.LiveIn(bid, v) {
				t.Fatalf("%s: LiveIn(b%d, %s): sparse %v, worklist %v, round-robin %v\n%s",
					label, b, f.VarName(v), sp.LiveIn(bid, v), wl.LiveIn(bid, v), rr.LiveIn(bid, v), f)
			}
			if sp.LiveOut(bid, v) != wl.LiveOut(bid, v) || sp.LiveOut(bid, v) != rr.LiveOut(bid, v) {
				t.Fatalf("%s: LiveOut(b%d, %s): sparse %v, worklist %v, round-robin %v\n%s",
					label, b, f.VarName(v), sp.LiveOut(bid, v), wl.LiveOut(bid, v), rr.LiveOut(bid, v), f)
			}
		}
	}
}

func TestSparseVsDenseFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 300; trial++ {
		f := randomCFGWithPhis(rng, 3+rng.Intn(12), 2+rng.Intn(6))
		assertSparseSame(t, f, "reachable")
	}
}

func TestSparseVsDenseUnreachable(t *testing.T) {
	rng := rand.New(rand.NewSource(434343))
	sawUnreachable := false
	for trial := 0; trial < 300; trial++ {
		f := randomCFGKeepUnreachable(rng, 4+rng.Intn(12), 2+rng.Intn(6))
		var sc Scratch
		li := ComputeSparseScratch(f, &sc)
		for b := range f.Blocks {
			if sc.state[b] == 0 {
				sawUnreachable = true
				if !li.in[b].Empty() || !li.out[b].Empty() {
					t.Fatalf("trial %d: unreachable b%d has non-empty sets\n%s", trial, b, f)
				}
			}
		}
		assertSparseSame(t, f, "unreachable")
	}
	if !sawUnreachable {
		t.Fatal("generator never produced an unreachable block")
	}
}

// TestSparseIrreducible reuses the hand-built two-headed loop from the
// worklist differential test, plus a multi-def (non-SSA) kill inside the
// region: c is redefined in one header, so the sparse upward walk must
// stop there while still carrying x all the way around.
func TestSparseIrreducible(t *testing.T) {
	f := ir.NewFunc("irreducible_sparse")
	x, y, c := f.NewVar("x"), f.NewVar("y"), f.NewVar("c")
	b0 := f.Blocks[f.Entry]
	b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.AddEdge(b0.ID, b1.ID)
	f.AddEdge(b0.ID, b2.ID)
	f.AddEdge(b1.ID, b2.ID)
	f.AddEdge(b2.ID, b1.ID)
	f.AddEdge(b2.ID, b3.ID)
	b0.Instrs = []ir.Instr{
		{Op: ir.OpConst, Def: x, Const: 1},
		{Op: ir.OpConst, Def: c, Const: 0},
		{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{c}},
	}
	b1.Instrs = []ir.Instr{
		{Op: ir.OpAdd, Def: y, Args: []ir.VarID{x, x}},
		{Op: ir.OpJmp, Def: ir.NoVar},
	}
	b2.Instrs = []ir.Instr{
		{Op: ir.OpAdd, Def: c, Args: []ir.VarID{x, y}},
		{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{c}},
	}
	b3.Instrs = []ir.Instr{
		{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{c}},
	}
	assertSparseSame(t, f, "irreducible")

	li := ComputeSparse(f)
	if !li.LiveIn(b1.ID, x) || !li.LiveIn(b2.ID, x) {
		t.Fatalf("x must be live into both irreducible headers\n%s", f)
	}
	// c's def in b2 kills the upward walk of the use in b3: not live into
	// the region's entry edges beyond the definition in b0's successors.
	if li.LiveOut(b1.ID, c) {
		t.Fatalf("c is redefined in b2 before its use; must not be live out of b1\n%s", f)
	}
}

func TestSparseVsDensePhiEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(454545))
	for trial := 0; trial < 200; trial++ {
		// Dense-φ generator settings: lots of joins, tiny variable pool,
		// so φ-edge seeding and UE seeding constantly collide.
		f := randomCFGWithPhis(rng, 6+rng.Intn(10), 2)
		assertSparseSame(t, f, "phi-edges")
	}
}

// TestComputeSparseScratchZeroAlloc pins the steady-state zero-allocation
// contract of the sparse solver, same shape as the worklist guard.
func TestComputeSparseScratchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5151))
	f := randomCFGWithPhis(rng, 40, 12)
	var sc Scratch
	ComputeSparseScratch(f, &sc) // warm-up: grow to high-water mark
	if n := testing.AllocsPerRun(100, func() {
		ComputeSparseScratch(f, &sc)
	}); n != 0 {
		t.Fatalf("warm ComputeSparseScratch allocates %v objects per run, want 0", n)
	}
}

func TestComputeWithDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4646))
	f := randomCFGWithPhis(rng, 10, 4)
	for _, solver := range []Solver{Worklist, RoundRobin, Sparse} {
		var sc Scratch
		if li := ComputeWith(f, &sc, solver); li == nil {
			t.Fatalf("ComputeWith(%v) returned nil", solver)
		}
		if sc.stats.Blocks == 0 {
			t.Fatalf("ComputeWith(%v) recorded no stats", solver)
		}
	}
}

func TestParseLivenessSolver(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Solver
	}{{"worklist", Worklist}, {"round-robin", RoundRobin}, {"roundrobin", RoundRobin}, {"sparse", Sparse}} {
		got, err := ParseSolver(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSolver(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() == "unknown" {
			t.Errorf("Solver %d has no String", got)
		}
	}
	if _, err := ParseSolver("dense"); err == nil {
		t.Error("ParseSolver accepted junk")
	}
}

func BenchmarkLivenessSparse(b *testing.B) { benchLiveness(b, ComputeSparseScratch) }
