package liveness_test

// Differential check over the real corpus: every function in testdata/
// (hand-written φ-form hazards including the irreducible CFG, plus the
// compiled language files), each in both its raw form and — for non-SSA
// input — its pruned-SSA form, must produce identical live sets under the
// worklist and round-robin solvers.

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/ssa"
)

func corpusFuncs(t *testing.T) map[string]*ir.Func {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".kl") || strings.HasSuffix(e.Name(), ".ir") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("no corpus files")
	}
	out := map[string]*ir.Func{}
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(name, ".ir") {
			f, err := ir.Parse(string(src))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = f
			continue
		}
		funcs, err := lang.Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range funcs {
			out[name+":"+f.Name] = f
			g := f.Clone()
			ssa.Build(g, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
			out[name+":"+f.Name+":ssa"] = g
		}
	}
	return out
}

func TestWorklistVsRoundRobinCorpus(t *testing.T) {
	var wsc, rsc liveness.Scratch
	for label, f := range corpusFuncs(t) {
		wl := liveness.ComputeScratch(f, &wsc)
		rr := liveness.ComputeRoundRobinScratch(f, &rsc)
		if b := firstDiff(f, wl, rr); b != ir.NoBlock {
			t.Fatalf("%s: solvers disagree at b%d\n%s", label, b, f)
		}
	}
}

func TestSparseVsWorklistCorpus(t *testing.T) {
	var ssc, wsc liveness.Scratch
	for label, f := range corpusFuncs(t) {
		sp := liveness.ComputeSparseScratch(f, &ssc)
		wl := liveness.ComputeScratch(f, &wsc)
		if b := firstDiff(f, sp, wl); b != ir.NoBlock {
			t.Fatalf("%s: sparse and worklist disagree at b%d\n%s", label, b, f)
		}
	}
}

// firstDiff returns the first block at which x and y disagree on whether
// some name is live in or out, or ir.NoBlock if they agree on every name.
func firstDiff(f *ir.Func, x, y *liveness.Info) ir.BlockID {
	for _, b := range f.Blocks {
		for v := ir.VarID(0); int(v) < f.NumVars(); v++ {
			if x.LiveIn(b.ID, v) != y.LiveIn(b.ID, v) || x.LiveOut(b.ID, v) != y.LiveOut(b.ID, v) {
				return b.ID
			}
		}
	}
	return ir.NoBlock
}
