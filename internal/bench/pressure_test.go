package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fastcoalesce/internal/regalloc"
)

// TestPressureSweepDifferential runs the full sweep — all four pipelines
// allocated at every k in PressureKs, each allocation verified against an
// independently built interference graph and interpreter-compared to the
// original program — and checks its aggregate shape: full coverage, colors
// within k, spilling monotone in k, and no coalesced pipeline spilling
// more than Standard (the paper's efficacy claim carried through the
// backend).
func TestPressureSweepDifferential(t *testing.T) {
	entries, err := RunPressureSweep()
	if err != nil {
		t.Fatal(err)
	}
	scopes := 1 + len(Families())
	if want := len(PressureKs) * scopes * len(Algos); len(entries) != want {
		t.Fatalf("%d entries, want %d", len(entries), want)
	}

	nWork := len(Workloads())
	spills := map[[2]string]map[int]int{} // (scope, pipeline) -> k -> spills
	for _, e := range entries {
		wantFuncs := 1
		if e.Scope == "suite" {
			wantFuncs = nWork
		}
		if e.Funcs != wantFuncs {
			t.Errorf("%s/%s k=%d covered %d funcs, want %d", e.Scope, e.Pipeline, e.K, e.Funcs, wantFuncs)
		}
		if e.ColorsUsed > e.K {
			t.Errorf("%s/%s k=%d used %d colors", e.Scope, e.Pipeline, e.K, e.ColorsUsed)
		}
		if e.Rounds < e.Funcs {
			t.Errorf("%s/%s k=%d ran %d rounds for %d funcs", e.Scope, e.Pipeline, e.K, e.Rounds, e.Funcs)
		}
		if (e.Spills == 0) != (e.SpillOps == 0) {
			t.Errorf("%s/%s k=%d: spills=%d but spill_ops=%d", e.Scope, e.Pipeline, e.K, e.Spills, e.SpillOps)
		}
		key := [2]string{e.Scope, e.Pipeline}
		if spills[key] == nil {
			spills[key] = map[int]int{}
		}
		spills[key][e.K] = e.Spills
	}
	for key, byK := range spills {
		for i := 1; i < len(PressureKs); i++ {
			lo, hi := PressureKs[i-1], PressureKs[i]
			if byK[hi] > byK[lo] {
				t.Errorf("%s/%s: spills grew from %d at k=%d to %d at k=%d",
					key[0], key[1], byK[lo], lo, byK[hi], hi)
			}
		}
	}
	for _, k := range PressureKs {
		std := spills[[2]string{"suite", Standard.String()}][k]
		for _, algo := range []Algo{New, Briggs, BriggsStar} {
			if got := spills[[2]string{"suite", algo.String()}][k]; got > std {
				t.Errorf("suite k=%d: %v spills %d, more than Standard's %d", k, algo, got, std)
			}
		}
	}
}

// TestPressureFamilyPins is the spill-count regression pin: the famgen
// families are deterministic, the pipelines are deterministic, and the
// allocator is deterministic, so the spill counts at a tight k=2 are
// exact. A diff here means allocation behavior changed — audit it, then
// update the pins.
func TestPressureFamilyPins(t *testing.T) {
	want := map[string]map[string]int{ // family -> pipeline -> spills at k=2
		"deep-loops":         {"Standard": 0, "New": 0, "Briggs": 0, "Briggs*": 0},
		"diamond-ladder":     {"Standard": 1, "New": 1, "Briggs": 1, "Briggs*": 1},
		"irreducible-ladder": {"Standard": 0, "New": 0, "Briggs": 0, "Briggs*": 0},
		// The adversarial families spill heavily at k=2 by design; the
		// point of the pins is the ordering: every coalescing pipeline
		// stays well under Standard's φ-instantiated copy storm.
		"phi-web":         {"Standard": 81, "New": 70, "Briggs": 38, "Briggs*": 38},
		"lost-copy-chain": {"Standard": 327, "New": 71, "Briggs": 71, "Briggs*": 71},
		// closure-ladder/Standard dropped 386 -> 385 when a spill-table
		// growth bug (stamps lost on reallocation, letting color re-spill
		// already-spilled ranges) was fixed in regalloc.Scratch.
		"closure-ladder": {"Standard": 385, "New": 133, "Briggs": 162, "Briggs*": 162},
	}
	for _, fam := range Families() {
		f := fam.Build(famPressureSize)
		for _, algo := range Algos {
			g := RunPipeline(f, algo).Func
			res, err := regalloc.Allocate(g, regalloc.Options{K: 2})
			if err != nil {
				t.Fatalf("%s/%v: %v", fam.Name, algo, err)
			}
			if err := regalloc.VerifyAllocation(g, res.Colors, 2); err != nil {
				t.Fatalf("%s/%v: %v", fam.Name, algo, err)
			}
			if got := res.SpilledVars; got != want[fam.Name][algo.String()] {
				t.Errorf("%s/%v k=2: %d spills, pinned %d", fam.Name, algo, got, want[fam.Name][algo.String()])
			}
		}
	}
}

// TestCommittedBenchReports checks every committed baseline at the repo
// root against the report schema, and that the current baseline carries
// the pressure sweep.
func TestCommittedBenchReports(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json baselines found at the repo root")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep BenchReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if rep.Schema != "fastcoalesce-bench/v1" {
			t.Errorf("%s: schema %q, want fastcoalesce-bench/v1", path, rep.Schema)
		}
		if rep.Label == "" {
			t.Errorf("%s: missing label", path)
		}
		// A baseline carries the workload suite, a streamed-corpus sweep,
		// or both (BENCH_10 is corpus-only: the streamed path never
		// materializes per-workload entries).
		if len(rep.Workloads) == 0 && len(rep.Corpus) == 0 {
			t.Errorf("%s: neither workload nor corpus entries", path)
		}
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_9.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Pressure) == 0 {
		t.Error("BENCH_9.json carries no pressure-sweep entries")
	}
	for _, e := range rep.Pressure {
		if e.Funcs == 0 || e.K == 0 || e.Pipeline == "" || e.Scope == "" {
			t.Errorf("BENCH_9.json pressure entry incomplete: %+v", e)
		}
	}
}

// TestCommittedCorpusReport gates the streamed-corpus baseline: BENCH_10
// must stream ≥ 10⁶ jobs per pipeline through all four pipelines with
// zero errors, carry every family's rows, and include the scheduler
// microbenchmark showing chunked claiming with stealing did not lose to
// the single counter it replaced.
func TestCommittedCorpusReport(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_10.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	globals := map[string]CorpusEntry{}
	families := map[string]map[string]bool{}
	for _, e := range rep.Corpus {
		if e.Family == "*" {
			globals[e.Pipeline] = e
			continue
		}
		if families[e.Pipeline] == nil {
			families[e.Pipeline] = map[string]bool{}
		}
		families[e.Pipeline][e.Family] = true
	}
	for _, algo := range Algos {
		g, ok := globals[algo.String()]
		if !ok {
			t.Errorf("BENCH_10.json: no global corpus row for %v", algo)
			continue
		}
		if g.Jobs < 1_000_000 {
			t.Errorf("BENCH_10.json %v: %d jobs streamed, want >= 1e6", algo, g.Jobs)
		}
		if g.Errors != 0 {
			t.Errorf("BENCH_10.json %v: %d job errors", algo, g.Errors)
		}
		if g.PeakHeapB <= 0 {
			t.Errorf("BENCH_10.json %v: no peak-heap sample", algo)
		}
		want := append([]string{GenFamily}, func() []string {
			var names []string
			for _, fam := range Families() {
				names = append(names, fam.Name)
			}
			return names
		}()...)
		for _, name := range want {
			if !families[algo.String()][name] {
				t.Errorf("BENCH_10.json %v: family %q missing", algo, name)
			}
		}
	}
	var single, stealing *SchedEntry
	for i := range rep.Sched {
		switch rep.Sched[i].Mode {
		case "single-counter":
			single = &rep.Sched[i]
		case "chunked-stealing":
			stealing = &rep.Sched[i]
		}
	}
	if single == nil || stealing == nil {
		t.Fatalf("BENCH_10.json: sched section incomplete (%d entries)", len(rep.Sched))
	}
	if stealing.WallNs <= 0 || single.WallNs <= 0 {
		t.Fatalf("BENCH_10.json: sched walls %v / %v", single.WallNs, stealing.WallNs)
	}
	if stealing.Pulls >= single.Pulls {
		t.Errorf("BENCH_10.json: chunked mode made %d pulls, single-counter %d — chunking should claim fewer",
			stealing.Pulls, single.Pulls)
	}
}
