package dom

import (
	"math/rand"
	"testing"

	"fastcoalesce/internal/ir"
)

// assertSameTree recomputes f under both solvers and requires every
// published field — idoms, preorder numbering, RPO, children, frontiers —
// to be byte-identical. chk and snca are caller-owned scratch Trees so
// fuzz loops also exercise reuse across differently-shaped functions.
func assertSameTree(t *testing.T, f *ir.Func, chk, snca *Tree) {
	t.Helper()
	chk.RecomputeWith(f, CHK)
	snca.RecomputeWith(f, SemiNCA)
	for b := range f.Blocks {
		if chk.Idom[b] != snca.Idom[b] {
			t.Fatalf("Idom[%d]: chk=%d semi-nca=%d", b, chk.Idom[b], snca.Idom[b])
		}
		if chk.Pre[b] != snca.Pre[b] || chk.MaxPre[b] != snca.MaxPre[b] {
			t.Fatalf("Pre/MaxPre[%d]: chk=(%d,%d) semi-nca=(%d,%d)",
				b, chk.Pre[b], chk.MaxPre[b], snca.Pre[b], snca.MaxPre[b])
		}
		if chk.RPONum[b] != snca.RPONum[b] {
			t.Fatalf("RPONum[%d]: chk=%d semi-nca=%d", b, chk.RPONum[b], snca.RPONum[b])
		}
		if len(chk.Children[b]) != len(snca.Children[b]) {
			t.Fatalf("Children[%d]: chk=%v semi-nca=%v", b, chk.Children[b], snca.Children[b])
		}
		for i := range chk.Children[b] {
			if chk.Children[b][i] != snca.Children[b][i] {
				t.Fatalf("Children[%d]: chk=%v semi-nca=%v", b, chk.Children[b], snca.Children[b])
			}
		}
	}
	if len(chk.RPO) != len(snca.RPO) {
		t.Fatalf("RPO length: chk=%d semi-nca=%d", len(chk.RPO), len(snca.RPO))
	}
	for i := range chk.RPO {
		if chk.RPO[i] != snca.RPO[i] {
			t.Fatalf("RPO[%d]: chk=%d semi-nca=%d", i, chk.RPO[i], snca.RPO[i])
		}
	}
	dfc := frontiers(chk)
	dfs := frontiers(snca)
	for b := range dfc {
		if len(dfc[b]) != len(dfs[b]) {
			t.Fatalf("Frontier[%d]: chk=%v semi-nca=%v", b, dfc[b], dfs[b])
		}
		for i := range dfc[b] {
			if dfc[b][i] != dfs[b][i] {
				t.Fatalf("Frontier[%d]: chk=%v semi-nca=%v", b, dfc[b], dfs[b])
			}
		}
	}
}

func TestSemiNCAStructured(t *testing.T) {
	cases := []struct {
		name  string
		nb    int
		edges [][2]int
	}{
		{"diamond", 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}},
		{"loop", 5, [][2]int{{0, 1}, {1, 2}, {1, 4}, {2, 3}, {3, 1}}},
		{"irreducible", 4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 1}, {1, 3}}},
		{"nested-loops", 7, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 2}, {3, 4}, {4, 1}, {4, 5}, {5, 6}}},
		{"double-diamond", 7, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {4, 6}, {5, 6}}},
		{"self-loop", 3, [][2]int{{0, 1}, {1, 1}, {1, 2}}},
		{"two-headed", 6, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 3}, {3, 5}}},
	}
	var chk, snca Tree
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertSameTree(t, buildCFG(t, tc.nb, tc.edges), &chk, &snca)
		})
	}
}

// randomDigraph builds a CFG-shaped function directly: dom only reads
// Succs/Preds, so no instructions are needed. Blocks may be unreachable
// and regions may be irreducible — exactly the inputs that separate a
// wrong semidominator pass from a right one.
func randomDigraph(rng *rand.Rand, nb int) *ir.Func {
	f := ir.NewFunc("rand")
	for i := 0; i < nb; i++ {
		f.NewBlock()
	}
	ne := nb + rng.Intn(2*nb)
	for i := 0; i < ne; i++ {
		f.AddEdge(ir.BlockID(rng.Intn(nb)), ir.BlockID(rng.Intn(nb)))
	}
	return f
}

func TestSemiNCARandom(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	var chk, snca Tree
	for i := 0; i < 400; i++ {
		assertSameTree(t, randomDigraph(rng, 2+rng.Intn(24)), &chk, &snca)
	}
}

// TestSemiNCAMutation grows one function edge by edge, re-running both
// solvers on the same scratch Trees after every mutation — the reuse
// pattern of the batch driver, under adversarial (often irreducible,
// often partly unreachable) shapes.
func TestSemiNCAMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(16180))
	var chk, snca Tree
	for round := 0; round < 20; round++ {
		nb := 4 + rng.Intn(20)
		f := ir.NewFunc("mut")
		for i := 0; i < nb; i++ {
			f.NewBlock()
		}
		for i := 0; i < 3*nb; i++ {
			f.AddEdge(ir.BlockID(rng.Intn(nb)), ir.BlockID(rng.Intn(nb)))
			assertSameTree(t, f, &chk, &snca)
		}
	}
}

func TestSemiNCADominanceMatchesNaive(t *testing.T) {
	// Reuse the slow-reference check from dom_test against the SEMI-NCA
	// tree directly, not just via equality with CHK.
	f := buildCFG(t, 8, [][2]int{
		{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}, {5, 1}, {5, 6}, {4, 7}, {7, 6},
	})
	var dt Tree
	dt.RecomputeWith(f, SemiNCA)
	naive := naiveDominators(f)
	for a := 0; a < len(f.Blocks); a++ {
		for b := 0; b < len(f.Blocks); b++ {
			want := naive[b][a]
			if got := dt.Dominates(ir.BlockID(a), ir.BlockID(b)); got != want {
				t.Errorf("Dominates(%d,%d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestSemiNCAZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	f := randomDigraph(rng, 64)
	var dt Tree
	dt.RecomputeWith(f, SemiNCA) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		dt.RecomputeWith(f, SemiNCA)
	})
	if allocs != 0 {
		t.Fatalf("warm RecomputeWith(SemiNCA) allocates %v times per run, want 0", allocs)
	}
}

func benchDom(b *testing.B, solver Solver) {
	rng := rand.New(rand.NewSource(31415))
	f := randomDigraph(rng, 512)
	var dt Tree
	dt.RecomputeWith(f, solver)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt.RecomputeWith(f, solver)
	}
}

func BenchmarkDomSemiNCA(b *testing.B) { benchDom(b, SemiNCA) }
func BenchmarkDomCHK(b *testing.B)     { benchDom(b, CHK) }
