package liveness

// Differential tests between the two solvers: the worklist solver
// (ComputeScratch, the default) and the retained round-robin solver
// (ComputeRoundRobinScratch, the oracle). Live-variable analysis has a
// unique least fixpoint, so the two must agree bit-for-bit on every
// (block, variable) point — including irreducible loops, where visit
// order differs most, and blocks unreachable from the entry, which both
// solvers must leave empty.

import (
	"math/rand"
	"testing"

	"fastcoalesce/internal/ir"
)

// assertSameInfo compares the two solvers' results on f point by point.
func assertSameInfo(t *testing.T, f *ir.Func, label string) {
	t.Helper()
	var wsc, rsc Scratch
	wl := ComputeScratch(f, &wsc)
	rr := ComputeRoundRobinScratch(f, &rsc)
	for b := range f.Blocks {
		bid := ir.BlockID(b)
		for v := ir.VarID(0); int(v) < f.NumVars(); v++ {
			if wl.LiveIn(bid, v) != rr.LiveIn(bid, v) {
				t.Fatalf("%s: LiveIn(b%d, %s): worklist %v, round-robin %v\n%s",
					label, b, f.VarName(v), wl.LiveIn(bid, v), rr.LiveIn(bid, v), f)
			}
			if wl.LiveOut(bid, v) != rr.LiveOut(bid, v) {
				t.Fatalf("%s: LiveOut(b%d, %s): worklist %v, round-robin %v\n%s",
					label, b, f.VarName(v), wl.LiveOut(bid, v), rr.LiveOut(bid, v), f)
			}
		}
	}
}

// randomCFGKeepUnreachable is randomCFGWithPhis without the final
// cleanup, and with chain edges dropped often enough that a good fraction
// of blocks end up unreachable from the entry. φ arities still match the
// predecessor lists (edges are placed before instructions), so both
// solvers see well-formed φs on reachable and unreachable joins alike.
func randomCFGKeepUnreachable(rng *rand.Rand, nb, nv int) *ir.Func {
	f := ir.NewFunc("live_unreach")
	vars := make([]ir.VarID, nv)
	for i := range vars {
		vars[i] = f.NewVar("")
	}
	for len(f.Blocks) < nb {
		f.NewBlock()
	}
	pick := func() ir.VarID { return vars[rng.Intn(nv)] }

	for bi := 0; bi < nb-1; bi++ {
		switch rng.Intn(4) {
		case 0:
			// No chain edge: bi+1 becomes unreachable unless some other
			// block happens to target it.
			f.AddEdge(ir.BlockID(bi), ir.BlockID(1+rng.Intn(nb-1)))
		case 1:
			f.AddEdge(ir.BlockID(bi), ir.BlockID(bi+1))
		default:
			f.AddEdge(ir.BlockID(bi), ir.BlockID(bi+1))
			f.AddEdge(ir.BlockID(bi), ir.BlockID(1+rng.Intn(nb-1)))
		}
	}
	for _, b := range f.Blocks {
		if len(b.Preds) >= 2 && rng.Intn(2) == 0 {
			args := make([]ir.VarID, len(b.Preds))
			for i := range args {
				args[i] = pick()
			}
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpPhi, Def: pick(), Args: args})
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			b.Instrs = append(b.Instrs,
				ir.Instr{Op: ir.OpAdd, Def: pick(), Args: []ir.VarID{pick(), pick()}})
		}
		switch len(b.Succs) {
		case 0:
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{pick()}})
		case 1:
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpJmp, Def: ir.NoVar})
		default:
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{pick()}})
		}
	}
	return f
}

func TestWorklistVsRoundRobinFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(171717))
	for trial := 0; trial < 300; trial++ {
		f := randomCFGWithPhis(rng, 3+rng.Intn(12), 2+rng.Intn(6))
		assertSameInfo(t, f, "reachable")
	}
}

func TestWorklistVsRoundRobinUnreachable(t *testing.T) {
	rng := rand.New(rand.NewSource(919191))
	sawUnreachable := false
	for trial := 0; trial < 300; trial++ {
		f := randomCFGKeepUnreachable(rng, 4+rng.Intn(12), 2+rng.Intn(6))
		var sc Scratch
		li := ComputeScratch(f, &sc)
		for b := range f.Blocks {
			if sc.state[b] == 0 {
				sawUnreachable = true
				if !li.in[b].Empty() || !li.out[b].Empty() {
					t.Fatalf("trial %d: unreachable b%d has non-empty sets\n%s", trial, b, f)
				}
			}
		}
		assertSameInfo(t, f, "unreachable")
	}
	if !sawUnreachable {
		t.Fatal("generator never produced an unreachable block")
	}
}

// TestWorklistIrreducible pins the solvers against each other on a
// hand-built irreducible region: a two-headed loop entered on both sides,
// with a value defined before the region and used inside both headers.
func TestWorklistIrreducible(t *testing.T) {
	f := ir.NewFunc("irreducible")
	x, y, c := f.NewVar("x"), f.NewVar("y"), f.NewVar("c")
	b0 := f.Blocks[f.Entry]
	b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.AddEdge(b0.ID, b1.ID)
	f.AddEdge(b0.ID, b2.ID)
	f.AddEdge(b1.ID, b2.ID) // the two headers form a cycle neither
	f.AddEdge(b2.ID, b1.ID) // of which dominates
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
	assertSameInfo(t, f, "irreducible")

	li := Compute(f)
	// x is loop-carried through the irreducible region: live into both
	// headers no matter which entry edge is taken.
	if !li.LiveIn(b1.ID, x) || !li.LiveIn(b2.ID, x) {
		t.Fatalf("x must be live into both irreducible headers\n%s", f)
	}
}

// TestComputeScratchZeroAlloc pins the zero-allocation contract of the
// worklist solver: once the Scratch has grown to a function's size,
// recomputing liveness for it allocates nothing.
func TestComputeScratchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	f := randomCFGWithPhis(rng, 40, 12)
	var sc Scratch
	ComputeScratch(f, &sc) // warm-up: grow to high-water mark
	if n := testing.AllocsPerRun(100, func() {
		ComputeScratch(f, &sc)
	}); n != 0 {
		t.Fatalf("warm ComputeScratch allocates %v objects per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		ComputeRoundRobinScratch(f, &sc)
	}); n != 0 {
		t.Fatalf("warm ComputeRoundRobinScratch allocates %v objects per run, want 0", n)
	}
}

func benchLiveness(b *testing.B, compute func(*ir.Func, *Scratch) *Info) {
	rng := rand.New(rand.NewSource(8080))
	f := randomCFGWithPhis(rng, 120, 24)
	var sc Scratch
	compute(f, &sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compute(f, &sc)
	}
}

func BenchmarkLivenessWorklist(b *testing.B)   { benchLiveness(b, ComputeScratch) }
func BenchmarkLivenessRoundRobin(b *testing.B) { benchLiveness(b, ComputeRoundRobinScratch) }
