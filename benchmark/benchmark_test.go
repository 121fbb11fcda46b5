package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// Run from this directory: go test ./...

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogMatchesSpec checks BENCHMARK.json's schema, that it lists
// exactly the catalogue's metrics, units and directions, and that every
// end-to-end metric carries a bound.
func TestCatalogMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if raw[k] == nil {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(raw))
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(got, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, want %v", got, workloadNames)
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	check := func(kind string, listed []specMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(listed), len(defs))
		}
		seen := map[string]bool{}
		for i, m := range listed {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name/unit %q/%q", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if i >= len(defs) {
				continue
			}
			d := defs[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s #%d: BENCHMARK.json has %s/%s/%s, the catalogue %s/%s/%s",
					kind, i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
			}
			if kind == "end_to_end" && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("end_to_end %s: bound must lie in (0, 0.25]", m.Name)
			}
			if kind == "per_layer" && m.Bound != nil {
				t.Errorf("per_layer %s carries a bound", m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if d := catalog["setup_s"]; d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s must be in s, lower is better")
	}
	var setupBound float64
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != nil {
			setupBound = *m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound != nil && *m.Bound > setupBound {
			t.Errorf("setup_s must carry the largest bound; %s has %v", m.Name, *m.Bound)
		}
	}
	isEndToEnd := map[string]bool{}
	for _, d := range endToEnd {
		isEndToEnd[d.Name] = true
	}
	// Every per-layer metric names the end-to-end metrics it should move
	// and the workloads it should move them on.
	for _, d := range perLayer {
		if d.Layer == "" || d.Moves == "" {
			t.Errorf("%s: missing layer or moves", d.Name)
			continue
		}
		if strings.HasPrefix(d.Moves, "none (") {
			continue
		}
		metrics, workloads, ok := strings.Cut(d.Moves, " on ")
		if !ok || metrics == "" || workloads == "" {
			t.Errorf("%s: moves %q is not \"<metrics> on <workloads>\"", d.Name, d.Moves)
			continue
		}
		for _, m := range strings.Fields(metrics) {
			if !isEndToEnd[m] {
				t.Errorf("%s moves %q, which is not an end-to-end metric", d.Name, m)
			}
		}
		for _, w := range strings.Fields(workloads) {
			if !slices.Contains(workloadNames, w) {
				t.Errorf("%s moves its metrics on %q, which is not a workload", d.Name, w)
			}
		}
	}
}

// TestQuartilesMatchPython pins the quartile rule to Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2}, 1, 1.5, 2},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// TestVerdict: a time verdict rests on at least minRuns runs per side;
// counts compare exactly.
func TestVerdict(t *testing.T) {
	b := 0.1
	tput := specMetric{Name: "new.funcs_per_s", Unit: "funcs/s", Better: "higher", Bound: &b}
	count := specMetric{Name: "static_copies", Unit: "count", Better: "lower", Bound: &b}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{50, 100, 150, 200, 50, 100, 150, 200, 50, 100}
	for _, c := range []struct {
		m          specMetric
		base, head []float64
		want       string
	}{
		{tput, base, base, "unchanged"},
		{tput, base, scaled(1.2), "better"},
		{tput, base, scaled(0.8), "worse"},
		{tput, base, []float64{101, 100, 100, 99, 101, 99, 101, 100, 100, 99}, "unchanged"},
		{tput, base, scaled(0.97), "worse"}, // inside the bound, but every run loses
		{tput, base[:5], scaled(1.2)[:5], "unresolved"},
		{tput, base[:9], scaled(0.8)[:9], "unresolved"},
		{tput, wide, wide, "unresolved"},
		{tput, wide, scaled(3), "better"},
		{tput, wide, scaled(0.2), "worse"},
		{count, []float64{5, 5}, []float64{5, 5}, "unchanged"},
		{count, []float64{5}, []float64{6}, "worse"},
		{count, []float64{5}, []float64{4}, "better"},
		{count, []float64{5, 6}, []float64{5, 5}, "unresolved"},
	} {
		if got, _, _ := verdict(c.m, c.base, c.head); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.m.Name, c.base, c.head, got, c.want)
		}
	}
}

// TestResultsFileAccumulatesRuns: -out appends, and -compare reads every
// run back, one sample per run.
func TestResultsFileAccumulatesRuns(t *testing.T) {
	path := t.TempDir() + "/runs.jsonl"
	for i, v := range []float64{10, 20, 30} {
		rep := newReport("suite", false)
		rep.set("p50_ms", v, v+1)
		res := &Results{Schema: resultsSchema, Seed: int64(i), Reports: []*Report{rep}}
		if err := appendRun(path, res); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := readRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := samples(runs, "suite", "p50_ms"); fmt.Sprint(got) != "[10.5 20.5 30.5]" {
		t.Errorf("samples = %v, want one median per run", got)
	}
}

// smallServe is the serve workload at test size.
func smallServe(seed int64) serveCfg {
	c := defaultServeCfg(seed)
	c.hot, c.cold = 8, 16
	c.nominalN, c.capacityN, c.warmN = 100, 40, 40
	c.ladder, c.ladderS = []float64{1000}, 0.1
	return c
}

// smallRun runs one workload at test size, untraced or traced.
func smallRun(t *testing.T, name string, seed int64, log *spanLog) *Report {
	t.Helper()
	ctx := context.Background()
	var w *inproc
	switch name {
	case "suite":
		w = suiteWorkload(1)
	case "large":
		w = largeWorkload(seed, 0.05)
	case "corpus":
		w = corpusWorkload(seed, 300)
	case "serve":
		if log != nil {
			return runServeTraced(ctx, smallServe(seed), "..", log)
		}
		return runServe(ctx, smallServe(seed), "..", 1)
	}
	if log != nil {
		return w.runTraced(ctx, log)
	}
	return w.run(ctx, 1)
}

// checkReport asserts a correct report with every metric of its set,
// each with its catalogued unit.
func checkReport(t *testing.T, rep *Report) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("%s: %d of %d failed: %v", rep.Workload, rep.Failed, rep.Attempted, rep.Failures)
	}
	for _, d := range metricSet(rep.Traced) {
		m := rep.Metrics[d.Name]
		if m == nil {
			t.Errorf("%s: %s missing", rep.Workload, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: %s in %s, want %s", rep.Workload, d.Name, m.Unit, d.Unit)
		}
	}
	if len(rep.Metrics) != len(metricSet(rep.Traced)) {
		t.Errorf("%s: %d metrics, want %d", rep.Workload, len(rep.Metrics), len(metricSet(rep.Traced)))
	}
	line, err := summaryLine([]*Report{rep})
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]valueUnit
	}
	if err := json.Unmarshal(line, &parsed); err != nil || !parsed.Correct || parsed.Attempted < 1 {
		t.Errorf("%s: bad summary line %s (%v)", rep.Workload, line, err)
	}
}

// counts are a report's deterministic numbers.
func counts(rep *Report) []float64 {
	var out []float64
	for _, name := range []string{"static_copies", "new.core.dynamic_copies", "new.regalloc.spill_ops", "new.core.copies_inserted"} {
		if m := rep.Metrics[name]; m != nil {
			out = append(out, m.Value)
		}
	}
	return out
}

// TestSmoke runs every workload at reduced size, twice with one seed:
// both runs must be correct, report every end-to-end metric, and agree
// on every count.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload and builds coalesced")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a := smallRun(t, name, 7, nil)
			checkReport(t, a)
			b := smallRun(t, name, 7, nil)
			checkReport(t, b)
			if ca, cb := counts(a), counts(b); len(ca) == 0 || fmt.Sprint(ca) != fmt.Sprint(cb) {
				t.Errorf("same seed, different counts: %v vs %v", ca, cb)
			}
		})
	}
}

// TestTraced runs every workload's traced variant at reduced size: the
// driver's rings must not drop (runTraced fails the report otherwise),
// every per-layer metric must be reported, and spans must be written.
func TestTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload and builds coalesced")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			log := newSpanLog()
			rep := smallRun(t, name, 3, log)
			checkReport(t, rep)
			// Every workload runs both pipelines, so their work counts and
			// phase times cannot be 0 (a broken scrape or span fold would
			// read 0).
			for _, m := range []string{"new.dom.calls", "new.liveness.visits", "new.liveness.ns", "new.core.union.ns",
				"briggs-star.dom.calls", "briggs-star.ifgraph.ns", "new.core.dynamic_copies", "probe.core.coalesce.ns"} {
				if rep.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, rep.Metrics[m].Value)
				}
			}
			if len(log.spans) == 0 {
				t.Fatal("no spans recorded")
			}
			path := t.TempDir() + "/spans.jsonl"
			if err := log.write(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			first := bytes.SplitN(data, []byte("\n"), 2)[0]
			var s map[string]any
			if err := json.Unmarshal(first, &s); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"trace_id", "span_id", "parent_id", "layer", "name", "start_ns", "dur_ns"} {
				if _, ok := s[k]; !ok {
					t.Errorf("span lacks %s: %s", k, first)
				}
			}
		})
	}
}

// TestSeedChangesInputs: the suite is fixed, every other workload's
// inputs follow the seed, and one seed always gives the same inputs.
func TestSeedChangesInputs(t *testing.T) {
	text := func(fns []*fn) string {
		var b strings.Builder
		for _, f := range fns {
			if f.src != "" {
				b.WriteString(f.src)
			} else {
				b.WriteString(f.ir.String())
			}
		}
		return b.String()
	}
	corpus := func(seed int64) string {
		var b strings.Builder
		for _, f := range corpusWorkload(seed, 64).fns {
			b.WriteString(f.src)
		}
		return b.String()
	}
	hot1, cold1 := serveFns(1, 8, 8)
	hot2, cold2 := serveFns(2, 8, 8)
	hot1b, _ := serveFns(1, 8, 8)
	for _, c := range []struct {
		name       string
		a, b, same string
	}{
		{"large", text(largeFns(1, 0.05)), text(largeFns(2, 0.05)), text(largeFns(1, 0.05))},
		{"corpus", corpus(1), corpus(2), corpus(1)},
		{"serve", text(append(hot1, cold1...)), text(append(hot2, cold2...)), text(append(hot1b, cold1...))},
	} {
		if c.a == c.b {
			t.Errorf("%s: seeds 1 and 2 give the same inputs", c.name)
		}
		if c.a != c.same {
			t.Errorf("%s: seed 1 gives different inputs on two calls", c.name)
		}
	}
}
