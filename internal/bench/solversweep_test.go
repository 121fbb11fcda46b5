package bench

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/ssa"
)

// TestFamiliesVerify pins the shape of every generator: the CFGs must
// pass the IR verifier and grow at the documented linear rates.
func TestFamiliesVerify(t *testing.T) {
	blocksOf := map[string]func(n int) int{
		"deep-loops":         func(n int) int { return 2*n + 3 },
		"diamond-ladder":     func(n int) int { return 4*n + 2 },
		"irreducible-ladder": func(n int) int { return 3*n + 2 },
		// PhiWeb clamps n to 2 (one dispatch needs two arms).
		"phi-web": func(n int) int {
			if n < 2 {
				n = 2
			}
			return 2*n + 3
		},
		"lost-copy-chain": func(n int) int { return 3*n + 2 },
		"closure-ladder":  func(n int) int { return 4*n + 2 },
	}
	for _, fam := range Families() {
		want, ok := blocksOf[fam.Name]
		if !ok {
			t.Fatalf("family %q has no pinned size formula", fam.Name)
		}
		for _, n := range []int{1, 2, 3, 5, 17} {
			f := fam.Build(n)
			if err := f.Verify(); err != nil {
				t.Errorf("%s(%d): %v", fam.Name, n, err)
				continue
			}
			if got := f.NumBlocks(); got != want(n) {
				t.Errorf("%s(%d): %d blocks, want %d", fam.Name, n, got, want(n))
			}
		}
	}
}

// TestIrreducibleLadderIsIrreducible checks the family delivers what its
// name promises: inside each rung's {p,q} cycle neither block dominates
// the other, so no back edge targets a dominator (the reducibility
// criterion fails).
func TestIrreducibleLadderIsIrreducible(t *testing.T) {
	f := IrreducibleLadder(3)
	var tr dom.Tree
	tr.Recompute(f)
	irreducible := false
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			// Back edge b→s with s not dominating b ⇒ irreducible region.
			if tr.RPONum[s] <= tr.RPONum[b.ID] && !tr.Dominates(s, b.ID) {
				irreducible = true
			}
		}
	}
	if !irreducible {
		t.Fatal("IrreducibleLadder built a reducible CFG")
	}
}

// corpusFns gathers every function the repository can produce — the 29
// kernel workloads (both pre- and post-SSA), the testdata files, the
// committed fuzz seed corpus, and the generator families — for the
// solver differential checks below.
func corpusFns(t *testing.T) map[string]*ir.Func {
	t.Helper()
	fns := map[string]*ir.Func{}
	add := func(name string, f *ir.Func) {
		if err := f.Verify(); err == nil {
			fns[name] = f
		}
	}
	for _, w := range Workloads() {
		f, err := CompileWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		add(w.Name, f)
		g := f.Clone()
		ssa.Build(g, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
		add(w.Name+"/ssa", g)
	}
	for _, src := range corpusSources(t) {
		f, err := ir.Parse(src.text)
		if err != nil {
			if f, err = lang.CompileOne(src.text); err != nil {
				continue
			}
		}
		add(src.name, f)
	}
	for _, fam := range Families() {
		for _, n := range []int{1, 7, 33} {
			add(fam.Name+"/"+strconv.Itoa(n), fam.Build(n))
		}
	}
	return fns
}

type corpusSrc struct{ name, text string }

// corpusSources loads testdata/*.{ir,kl} plus the go-fuzz-v1 seed files
// committed under testdata/fuzz.
func corpusSources(t *testing.T) []corpusSrc {
	t.Helper()
	var out []corpusSrc
	ents, err := os.ReadDir("../../testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".ir") || strings.HasSuffix(e.Name(), ".kl") {
			b, err := os.ReadFile(filepath.Join("../../testdata", e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, corpusSrc{e.Name(), string(b)})
		}
	}
	seedDir := filepath.Join("testdata", "fuzz", "FuzzDestructPipelines")
	seeds, err := os.ReadDir(seedDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range seeds {
		b, err := os.ReadFile(filepath.Join(seedDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// go test fuzz v1 format: a header line, then string("...").
		for _, line := range strings.Split(string(b), "\n") {
			if !strings.HasPrefix(line, "string(") {
				continue
			}
			if s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")")); err == nil {
				out = append(out, corpusSrc{"fuzz/" + e.Name(), s})
			}
		}
	}
	if len(out) < 5 {
		t.Fatalf("corpus suspiciously small: %d sources", len(out))
	}
	return out
}

// TestSolverDifferentialCorpus is the cross-package differential proof:
// on every corpus function, SEMI-NCA must reproduce CHK's dominator tree
// field-for-field and the sparse liveness solver must reproduce the
// worklist fixed point bit-for-bit.
func TestSolverDifferentialCorpus(t *testing.T) {
	var chk, snca dom.Tree
	var scW, scS liveness.Scratch
	for name, f := range corpusFns(t) {
		chk.RecomputeWith(f, dom.CHK)
		snca.RecomputeWith(f, dom.SemiNCA)
		for b := range f.Blocks {
			if chk.Idom[b] != snca.Idom[b] {
				t.Errorf("%s: idom(b%d): chk=%d semi-nca=%d", name, b, chk.Idom[b], snca.Idom[b])
			}
			if chk.Pre[b] != snca.Pre[b] || chk.MaxPre[b] != snca.MaxPre[b] {
				t.Errorf("%s: dominator preorder differs at b%d", name, b)
			}
			if chk.RPONum[b] != snca.RPONum[b] {
				t.Errorf("%s: RPO differs at b%d", name, b)
			}
		}
		lw := liveness.ComputeWith(f, &scW, liveness.Worklist)
		ls := liveness.ComputeWith(f, &scS, liveness.Sparse)
		for _, b := range f.Blocks {
			if !sameNames(lw.LiveInNames(b.ID), ls.LiveInNames(b.ID)) {
				t.Errorf("%s: live-in differs at b%d", name, b.ID)
			}
			if !sameNames(lw.LiveOutNames(b.ID), ls.LiveOutNames(b.ID)) {
				t.Errorf("%s: live-out differs at b%d", name, b.ID)
			}
		}
	}
}

// TestRunSolverSweep runs the real sweep (it doubles as the CI
// differential gate) and sanity-checks its output table.
func TestRunSolverSweep(t *testing.T) {
	entries, err := RunSolverSweep()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(Families()) * len(solverSizes); len(entries) != want {
		t.Fatalf("%d entries, want %d", len(entries), want)
	}
	for _, e := range entries {
		if e.CHKNs <= 0 || e.SemiNCANs <= 0 || e.WorklistNs <= 0 || e.SparseNs <= 0 {
			t.Errorf("%s/%d: non-positive timing %+v", e.Family, e.Size, e)
		}
	}
	table := FormatSolverSweep(entries)
	for _, want := range []string{"family", "diamond-ladder", "irreducible-ladder", "sparse"} {
		if !strings.Contains(table, want) {
			t.Errorf("sweep table missing %q:\n%s", want, table)
		}
	}
}

// TestDriverRecomputeCountsPerSolver extends the dominators-once guard
// to the per-solver counters: a batch pinned to one solver must bump
// only that solver's counter, once per function.
func TestDriverRecomputeCountsPerSolver(t *testing.T) {
	jobs := kernelJobsLocal(t)
	for _, ds := range []dom.Solver{dom.CHK, dom.SemiNCA} {
		beforeCHK := dom.RecomputeCountOf(dom.CHK)
		beforeSNCA := dom.RecomputeCountOf(dom.SemiNCA)
		_, snap := driver.Run(jobs, driver.Config{Algo: driver.New, Workers: 1, DomSolver: ds})
		if snap.Errors != 0 {
			t.Fatalf("%v: errors=%d", ds, snap.Errors)
		}
		dCHK := dom.RecomputeCountOf(dom.CHK) - beforeCHK
		dSNCA := dom.RecomputeCountOf(dom.SemiNCA) - beforeSNCA
		want := int64(len(jobs))
		switch ds {
		case dom.CHK:
			if dCHK != want || dSNCA != 0 {
				t.Errorf("chk batch: chk=%d snca=%d, want %d/0", dCHK, dSNCA, want)
			}
		case dom.SemiNCA:
			if dSNCA != want || dCHK != 0 {
				t.Errorf("semi-nca batch: chk=%d snca=%d, want 0/%d", dCHK, dSNCA, want)
			}
		}
		if snap.DomRecomputes != want {
			t.Errorf("%v: snapshot DomRecomputes=%d, want %d", ds, snap.DomRecomputes, want)
		}
	}
}

// kernelJobsLocal mirrors the driver test helper without importing the
// driver's external test package.
func kernelJobsLocal(t *testing.T) []driver.Job {
	t.Helper()
	var jobs []driver.Job
	for _, w := range Workloads() {
		jobs = append(jobs, driver.Job{Name: w.Name, Src: w.Src})
	}
	return jobs
}
