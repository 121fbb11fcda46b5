package dom

import (
	"testing"

	"fastcoalesce/internal/ir"
)

// buildCFG builds a function with the given edges (blocks are created on
// demand; block 0 is the entry). Every block gets a trivial terminator so
// the function verifies.
func buildCFG(t *testing.T, nblocks int, edges [][2]int) *ir.Func {
	t.Helper()
	f := ir.NewFunc("g")
	c := f.NewVar("c")
	for len(f.Blocks) < nblocks {
		f.NewBlock()
	}
	for _, e := range edges {
		f.AddEdge(ir.BlockID(e[0]), ir.BlockID(e[1]))
	}
	for _, b := range f.Blocks {
		switch len(b.Succs) {
		case 0:
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{c}})
		case 1:
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpJmp, Def: ir.NoVar})
		case 2:
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{c}})
		default:
			t.Fatalf("block with %d succs", len(b.Succs))
		}
	}
	if b0 := f.Blocks[0]; len(b0.Instrs) > 0 {
		b0.Instrs = append([]ir.Instr{{Op: ir.OpConst, Def: c, Const: 1}}, b0.Instrs...)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return f
}

func TestIdomDiamond(t *testing.T) {
	// 0 -> 1, 2 ; 1 -> 3 ; 2 -> 3
	f := buildCFG(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	dt := New(f)
	want := []ir.BlockID{ir.NoBlock, 0, 0, 0}
	for b, w := range want {
		if dt.Idom[b] != w {
			t.Errorf("Idom[%d] = %d, want %d", b, dt.Idom[b], w)
		}
	}
	if !dt.Dominates(0, 3) || dt.StrictlyDominates(1, 3) || dt.StrictlyDominates(3, 3) {
		t.Fatal("dominance queries wrong")
	}
}

func TestIdomLoop(t *testing.T) {
	// 0 -> 1 ; 1 -> 2, 4 ; 2 -> 3 ; 3 -> 1 (back edge) ; 4: exit
	f := buildCFG(t, 5, [][2]int{{0, 1}, {1, 2}, {1, 4}, {2, 3}, {3, 1}})
	dt := New(f)
	want := []ir.BlockID{ir.NoBlock, 0, 1, 2, 1}
	for b, w := range want {
		if dt.Idom[b] != w {
			t.Errorf("Idom[%d] = %d, want %d", b, dt.Idom[b], w)
		}
	}
}

func TestIdomIrreducible(t *testing.T) {
	// Classic irreducible CFG: 0 -> 1, 2 ; 1 <-> 2 ; both -> 3.
	f := buildCFG(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 1}, {1, 3}, {2, 3}})
	dt := New(f)
	for _, b := range []int{1, 2, 3} {
		if dt.Idom[b] != 0 {
			t.Errorf("Idom[%d] = %d, want 0", b, dt.Idom[b])
		}
	}
}

// naiveDominators computes the full dominator sets by the classic
// iterative dataflow formulation, as an oracle.
func naiveDominators(f *ir.Func) [][]bool {
	n := len(f.Blocks)
	dom := make([][]bool, n)
	for i := range dom {
		dom[i] = make([]bool, n)
		for j := range dom[i] {
			dom[i][j] = true
		}
	}
	entry := int(f.Entry)
	for j := range dom[entry] {
		dom[entry][j] = j == entry
	}
	for changed := true; changed; {
		changed = false
		for b := 0; b < n; b++ {
			if b == entry {
				continue
			}
			nw := make([]bool, n)
			first := true
			for _, p := range f.Blocks[b].Preds {
				if first {
					copy(nw, dom[p])
					first = false
				} else {
					for j := range nw {
						nw[j] = nw[j] && dom[p][j]
					}
				}
			}
			if first { // unreachable
				continue
			}
			nw[b] = true
			for j := range nw {
				if nw[j] != dom[b][j] {
					dom[b] = nw
					changed = true
					break
				}
			}
		}
	}
	return dom
}

func TestDominanceMatchesNaive(t *testing.T) {
	cases := [][][2]int{
		{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
		{{0, 1}, {1, 2}, {1, 4}, {2, 3}, {3, 1}},
		{{0, 1}, {0, 2}, {1, 2}, {2, 1}, {1, 3}, {2, 3}},
		{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 2}, {2, 5}, {5, 1}, {1, 6}},
		{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {3, 5}, {4, 5}, {5, 1}, {2, 6}, {5, 6}},
	}
	for ci, edges := range cases {
		maxb := 0
		for _, e := range edges {
			if e[0] > maxb {
				maxb = e[0]
			}
			if e[1] > maxb {
				maxb = e[1]
			}
		}
		f := buildCFG(t, maxb+1, edges)
		dt := New(f)
		oracle := naiveDominators(f)
		n := len(f.Blocks)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := oracle[b][a]
				got := dt.Dominates(ir.BlockID(a), ir.BlockID(b))
				if got != want {
					t.Errorf("case %d: Dominates(%d,%d) = %v, want %v", ci, a, b, got, want)
				}
			}
		}
	}
}

func TestPreorderIntervals(t *testing.T) {
	f := buildCFG(t, 5, [][2]int{{0, 1}, {1, 2}, {1, 4}, {2, 3}, {3, 1}})
	dt := New(f)
	// Strict dominance must coincide with the open preorder interval.
	n := len(f.Blocks)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			viaInterval := a != b && dt.Pre[a] < dt.Pre[b] && dt.Pre[b] <= dt.MaxPre[a]
			if viaInterval != dt.StrictlyDominates(ir.BlockID(a), ir.BlockID(b)) {
				t.Errorf("interval/strict mismatch for (%d,%d)", a, b)
			}
		}
	}
}

// frontiers computes t's dominance frontiers on fresh buffers.
func frontiers(t *Tree) [][]ir.BlockID {
	df, _ := t.FrontiersInto(nil, nil)
	return df
}

func TestFrontiers(t *testing.T) {
	// Diamond: DF(1) = DF(2) = {3}; DF(0) = DF(3) = {}.
	f := buildCFG(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	dt := New(f)
	df := frontiers(dt)
	if len(df[1]) != 1 || df[1][0] != 3 {
		t.Errorf("DF(1) = %v, want [3]", df[1])
	}
	if len(df[2]) != 1 || df[2][0] != 3 {
		t.Errorf("DF(2) = %v, want [3]", df[2])
	}
	if len(df[0]) != 0 || len(df[3]) != 0 {
		t.Errorf("DF(0)=%v DF(3)=%v, want empty", df[0], df[3])
	}
}

func TestFrontiersLoop(t *testing.T) {
	// Loop: 0->1; 1->2,4; 2->3; 3->1. Header 1 is in DF of 1,2,3.
	f := buildCFG(t, 5, [][2]int{{0, 1}, {1, 2}, {1, 4}, {2, 3}, {3, 1}})
	dt := New(f)
	df := frontiers(dt)
	has := func(b int, x ir.BlockID) bool {
		for _, y := range df[b] {
			if y == x {
				return true
			}
		}
		return false
	}
	for _, b := range []int{1, 2, 3} {
		if !has(b, 1) {
			t.Errorf("DF(%d) = %v, want to contain 1", b, df[b])
		}
	}
}

func TestRPOStartsAtEntry(t *testing.T) {
	f := buildCFG(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	dt := New(f)
	if dt.RPO[0] != f.Entry {
		t.Fatalf("RPO[0] = %d, want entry", dt.RPO[0])
	}
	// Every block appears exactly once.
	seen := map[ir.BlockID]bool{}
	for _, b := range dt.RPO {
		if seen[b] {
			t.Fatalf("block %d twice in RPO", b)
		}
		seen[b] = true
	}
	if len(seen) != len(f.Blocks) {
		t.Fatalf("RPO has %d blocks, want %d", len(seen), len(f.Blocks))
	}
}

func TestFindLoopsSimple(t *testing.T) {
	f := buildCFG(t, 5, [][2]int{{0, 1}, {1, 2}, {1, 4}, {2, 3}, {3, 1}})
	li := New(f).FindLoops()
	if len(li.Loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(li.Loops))
	}
	if li.Loops[0].Header != 1 {
		t.Fatalf("header = %d, want 1", li.Loops[0].Header)
	}
	wantDepth := []int32{0, 1, 1, 1, 0}
	for b, w := range wantDepth {
		if li.Depth[b] != w {
			t.Errorf("Depth[%d] = %d, want %d", b, li.Depth[b], w)
		}
	}
}

func TestFindLoopsNested(t *testing.T) {
	// outer: 1..5 (back edge 5->1); inner: 2..4 (back edge 4->2)
	// 0->1; 1->2; 2->3; 3->4; 4->2; 4->5... wait 4 has two succs: 2 and 5.
	f := buildCFG(t, 7, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 2}, {4, 5}, {5, 1}, {1, 6},
	})
	li := New(f).FindLoops()
	if len(li.Loops) != 2 {
		t.Fatalf("got %d loops, want 2", len(li.Loops))
	}
	if li.Depth[3] != 2 {
		t.Errorf("Depth[3] = %d, want 2 (inner)", li.Depth[3])
	}
	if li.Depth[5] != 1 {
		t.Errorf("Depth[5] = %d, want 1 (outer only)", li.Depth[5])
	}
	if li.Depth[0] != 0 || li.Depth[6] != 0 {
		t.Errorf("blocks outside loops have nonzero depth: %v", li.Depth)
	}
}

func TestFindLoopsSharedHeader(t *testing.T) {
	// Two back edges to the same header merge into one loop.
	f := buildCFG(t, 5, [][2]int{{0, 1}, {1, 2}, {1, 4}, {2, 3}, {2, 1}, {3, 1}})
	li := New(f).FindLoops()
	if len(li.Loops) != 1 {
		t.Fatalf("got %d loops, want 1 (merged)", len(li.Loops))
	}
	if li.Depth[2] != 1 || li.Depth[3] != 1 {
		t.Errorf("Depth = %v", li.Depth)
	}
}
