package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Compare mode judges a change against its base, metric by metric and
// workload by workload, by the rule of the choosing-metrics guide (§8)
// with the bounds from BENCHMARK.json. A side is a results file of
// several runs (-out appends one run per line); each run's median is one
// sample, and the i-th runs of the two sides form a pair, so the runs
// should be made alternating base and head.
//
//   - A count compares exactly: it must repeat in every run of a side.
//   - A side with fewer than minRuns runs is "unresolved": windows inside
//     one run do not show the drift between runs.
//   - When the base runs' quartile spread exceeds the bound the verdict
//     is "unresolved", unless every head run beats every base run
//     ("better") or loses to every base run ("worse").
//   - A median worse than the base's by more than the bound is "worse".
//   - "better" needs the head to win at least nine tenths of the pairs
//     and the medians to differ by more than the base's quartile
//     distance; "worse" is the same with the head losing. So a slowdown
//     the runs resolve is "worse" even inside the bound: the bound is
//     the most a change may cost, not a margin that hides costs.
//   - Anything else is "unchanged".

// minRuns is the fewest runs per side a time verdict rests on.
const minRuns = 10

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns reads a results file: one run per line.
func readRuns(path string) ([]*Results, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	var runs []*Results
	sc := bufio.NewScanner(fh)
	sc.Buffer(nil, 64<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r Results
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Schema != resultsSchema {
			return nil, fmt.Errorf("%s:%d: schema %q, want %q", path, line, r.Schema, resultsSchema)
		}
		runs = append(runs, &r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return runs, nil
}

// samples returns one metric's value in every run that reports it on
// the workload.
func samples(runs []*Results, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		for _, rep := range r.Reports {
			if rep.Workload == workload && rep.Metrics[metric] != nil {
				out = append(out, rep.Metrics[metric].Value)
			}
		}
	}
	return out
}

// verdict applies the rule to one metric on one workload; base and head
// hold one value per run. It also returns the change of the medians and
// the base runs' spread, both as shares of the base median.
func verdict(m specMetric, base, head []float64) (v string, change, spread float64) {
	bs := summarize(m.Unit, base)
	hs := summarize(m.Unit, head)
	if bs.Value != 0 {
		change = (hs.Value - bs.Value) / math.Abs(bs.Value)
	}
	spread = bs.spread()
	gain := change // positive: better
	if m.Better == "lower" {
		gain = -change
	}
	if m.Unit == "count" {
		switch {
		case bs.Min != bs.Max || hs.Min != hs.Max:
			return "unresolved", change, spread // not a repeating count
		case hs.Value == bs.Value:
			return "unchanged", change, spread
		case gain > 0:
			return "better", change, spread
		}
		return "worse", change, spread
	}
	if len(base) < minRuns || len(head) < minRuns {
		return "unresolved", change, spread
	}
	bound := 0.0
	if m.Bound != nil {
		bound = *m.Bound
	}
	beats := func(x, y float64) bool {
		if m.Better == "lower" {
			return x < y
		}
		return x > y
	}
	if spread > bound {
		allWin, allLose := true, true
		for _, h := range head {
			for _, b := range base {
				allWin = allWin && beats(h, b)
				allLose = allLose && beats(b, h)
			}
		}
		switch {
		case allWin:
			return "better", change, spread
		case allLose:
			return "worse", change, spread
		}
		return "unresolved", change, spread
	}
	if gain < -bound {
		return "worse", change, spread
	}
	pairs := min(len(base), len(head))
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case beats(head[i], base[i]):
			wins++
		case beats(base[i], head[i]):
			losses++
		}
	}
	resolved := math.Abs(hs.Value-bs.Value) > bs.Q3-bs.Q1
	switch {
	case resolved && float64(wins) >= 0.9*float64(pairs):
		return "better", change, spread
	case resolved && float64(losses) >= 0.9*float64(pairs):
		return "worse", change, spread
	}
	return "unchanged", change, spread
}

// runCompare prints one row per end-to-end metric and workload, then the
// per-layer changes (no verdict: they carry no bound). It returns the
// number of "worse" verdicts.
func runCompare(w io.Writer, spec *benchmarkSpec, args []string) (int, error) {
	if len(args) != 2 {
		return 0, fmt.Errorf("-compare needs a base and a head results file")
	}
	base, err := readRuns(args[0])
	if err != nil {
		return 0, err
	}
	head, err := readRuns(args[1])
	if err != nil {
		return 0, err
	}
	for _, r := range append(append([]*Results(nil), base...), head...) {
		if r.Seconds != base[0].Seconds || r.Traced != base[0].Traced {
			return 0, fmt.Errorf("runs differ in length or tracing; compare runs made with the same settings")
		}
	}
	fmt.Fprintf(w, "base %s: %d runs\nhead %s: %d runs\n", args[0], len(base), args[1], len(head))
	fmt.Fprintf(w, "%-8s %-26s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "base", "head", "change", "spread", "bound", "verdict")
	counts := map[string]int{}
	worse := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, h := samples(base, wl.Name, m.Name), samples(head, wl.Name, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v, change, spread := verdict(m, b, h)
			counts[v]++
			if v == "worse" {
				worse++
			}
			bound := "exact"
			if m.Unit != "count" && m.Bound != nil {
				bound = fmt.Sprintf("%.2f", *m.Bound)
			}
			fmt.Fprintf(w, "%-8s %-26s %14.4f %14.4f %+7.2f%% %7.2f%% %6s  %s\n",
				wl.Name, m.Name, median(b), median(h), 100*change, 100*spread, bound, v)
		}
	}
	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d %s", counts[k], k))
	}
	fmt.Fprintf(w, "summary: %s\n", strings.Join(parts, ", "))
	for _, wl := range spec.Workloads {
		for _, m := range spec.PerLayer {
			b, h := samples(base, wl.Name, m.Name), samples(head, wl.Name, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			bm, hm := median(b), median(h)
			change := 0.0
			if bm != 0 {
				change = 100 * (hm - bm) / math.Abs(bm)
			}
			fmt.Fprintf(w, "%-8s %-40s %14.4f %14.4f %+7.2f%% (per-layer)\n", wl.Name, m.Name, bm, hm, change)
		}
	}
	return worse, nil
}
