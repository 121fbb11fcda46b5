package regalloc_test

import (
	"slices"
	"strings"
	"testing"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/core"
	"fastcoalesce/internal/ifgraph"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/regalloc"
	"fastcoalesce/internal/ssa"
)

// spilledKernel returns the suite kernel smoothx allocated with k = 4
// registers (it spills), and its coloring.
func spilledKernel(t *testing.T) (*ir.Func, []int) {
	t.Helper()
	i := slices.IndexFunc(bench.Workloads(), func(w bench.Workload) bool { return w.Name == "smoothx" })
	f, err := bench.CompileWorkload(bench.Workloads()[i])
	if err != nil {
		t.Fatal(err)
	}
	ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
	core.Coalesce(f, core.Options{})
	res, err := regalloc.Allocate(f, regalloc.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledVars == 0 {
		t.Fatal("smoothx no longer spills at k=4; pick a kernel that does")
	}
	return f, res.Colors
}

// verifier is one entry point of the coloring check.
type verifier struct {
	name   string
	verify func(f *ir.Func, colors []int, k int) error
}

// verifiers returns both entry points; the scratch one reuses a single
// Scratch across every call of a test.
func verifiers() []verifier {
	var sc regalloc.Scratch
	return []verifier{
		{"VerifyAllocation", regalloc.VerifyAllocation},
		{"VerifyAllocationScratch", func(f *ir.Func, colors []int, k int) error {
			return regalloc.VerifyAllocationScratch(f, colors, k, &sc)
		}},
	}
}

// TestVerifyAllocationCatchesEveryEdge proves the graph-free check
// misses no interference the graph has: for every edge of the graph
// ifgraph.Build constructs on the allocated kernel, giving both
// endpoints one extra register that no other name uses must fail the
// check, so the edge itself is what it reports.
func TestVerifyAllocationCatchesEveryEdge(t *testing.T) {
	f, colors := spilledKernel(t)
	const k = 4
	g := ifgraph.Build(f, liveness.Compute(f), ifgraph.BuildOptions{})
	for _, vf := range verifiers() {
		verify := vf.verify
		t.Run(vf.name, func(t *testing.T) {
			if err := verify(f, colors, k); err != nil {
				t.Fatalf("valid coloring rejected: %v", err)
			}
			edges := 0
			for v := int32(0); v < int32(g.N()); v++ {
				for _, n := range g.Neighbors(v) {
					if n < v {
						continue
					}
					edges++
					bad := slices.Clone(colors)
					bad[v], bad[n] = k, k
					err := verify(f, bad, k+1)
					if err == nil || !strings.Contains(err.Error(), "share register") {
						t.Fatalf("edge %s–%s in one register: got %v", f.VarName(ir.VarID(v)), f.VarName(ir.VarID(n)), err)
					}
				}
			}
			if edges == 0 {
				t.Fatal("the kernel's interference graph has no edges")
			}
		})
	}
}

// TestVerifyAllocationFailurePaths covers the other ways a coloring is
// wrong: a register number out of range, a name the code defines or uses
// without a register, and a colors slice too short for the function
// (which must be an error, not an index panic). Every name the allocated
// kernel uses is defined earlier in code order, so the uncolored use is
// a fresh name substituted for one argument.
func TestVerifyAllocationFailurePaths(t *testing.T) {
	f, colors := spilledKernel(t)
	const k = 4
	firstDef := ir.NoVar
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op.HasDef() && firstDef == ir.NoVar {
				firstDef = in.Def
			}
		}
	}
	cases := []struct {
		name  string
		edit  func(g *ir.Func, c []int) []int
		wants string
	}{
		{"color-out-of-range", func(_ *ir.Func, c []int) []int { c[firstDef] = k; return c }, ">= K=4"},
		{"uncolored-def", func(_ *ir.Func, c []int) []int { c[firstDef] = -1; return c }, "defined but uncolored"},
		{"uncolored-use", func(g *ir.Func, c []int) []int {
			for _, b := range g.Blocks {
				for i := range b.Instrs {
					if in := &b.Instrs[i]; len(in.Args) > 0 {
						in.Args[0] = g.NewVar("ghost")
						return append(c, -1)
					}
				}
			}
			t.Fatal("the kernel has no instruction with an argument")
			return nil
		}, "ghost used but uncolored"},
		{"short-colors", func(_ *ir.Func, c []int) []int { return c[:len(c)-1] }, "colors for"},
		{"no-colors", func(*ir.Func, []int) []int { return nil }, "colors for"},
	}
	for _, vf := range verifiers() {
		for _, c := range cases {
			t.Run(vf.name+"/"+c.name, func(t *testing.T) {
				g := f.Clone()
				err := vf.verify(g, c.edit(g, slices.Clone(colors)), k)
				if err == nil || !strings.Contains(err.Error(), c.wants) {
					t.Fatalf("got %v, want an error containing %q", err, c.wants)
				}
			})
		}
	}
}
