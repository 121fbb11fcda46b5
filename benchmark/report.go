package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Report is one workload's outcome in one run.
type Report struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]*Metric `json:"metrics"`
	// Info holds numbers that are recorded but not gated: the serve
	// ladder and its warm/cold split, per-phase and per-family times,
	// harness costs, and a traced run's end-to-end values.
	Info map[string]any `json:"info,omitempty"`

	mu sync.Mutex
}

// maxFailureNotes bounds the failure messages kept per report.
const maxFailureNotes = 20

func newReport(workload string, traced bool) *Report {
	return &Report{Workload: workload, Traced: traced, Metrics: map[string]*Metric{}, Info: map[string]any{}}
}

// set records a catalogued metric from its samples. A metric without
// a finite sample (a run cut short, a division by zero jobs) fails the
// run but still reports 0, so the summary line stays valid JSON.
func (r *Report) set(name string, samples ...float64) {
	def, known := catalog[name]
	if !known {
		panic("uncatalogued metric " + name)
	}
	var finite []float64
	for _, v := range samples {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			finite = append(finite, v)
		}
	}
	if len(finite) != len(samples) || len(finite) == 0 {
		r.fail("metric %s: %d of %d samples are finite", name, len(finite), len(samples))
		finite = append(finite, 0)
	}
	r.Metrics[name] = summarize(def.Unit, finite)
}

// attempt counts n attempted operations (compiles, requests, checks).
func (r *Report) attempt(n int64) {
	r.mu.Lock()
	r.Attempted += n
	r.mu.Unlock()
}

// fail counts one failed operation and keeps its description.
func (r *Report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// complete checks that the report carries exactly the catalogue set for
// its mode and sets Correct.
func (r *Report) complete() {
	want := map[string]bool{}
	for _, d := range metricSet(r.Traced) {
		want[d.Name] = true
		if r.Metrics[d.Name] == nil {
			r.fail("metric %s was not measured", d.Name)
		}
	}
	for name := range r.Metrics {
		if !want[name] {
			r.fail("metric %s does not belong to this run's set", name)
		}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
		r.fail("nothing was attempted")
	}
	r.Correct = r.Failed == 0
}

// Results is the file -out writes and -compare reads.
type Results struct {
	Schema     string    `json:"schema"`
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Traced     bool      `json:"traced"`
	Reports    []*Report `json:"workloads"`
}

const resultsSchema = "fastcoalesce-benchmark/v1"

// writeHuman prints every metric of r by name, with unit and spread.
func writeHuman(w io.Writer, r *Report) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-7s %-40s %14.4f %-8s q1 %.4f q3 %.4f  min %.4f max %.4f  n=%d\n",
			r.Workload, n, m.Value, m.Unit, m.Q1, m.Q3, m.Min, m.Max, m.N)
	}
	status := "correct"
	if !r.Correct {
		status = "INCORRECT: " + strings.Join(r.Failures, "; ")
	}
	fmt.Fprintf(w, "%-7s attempted %d failed %d — %s\n", r.Workload, r.Attempted, r.Failed, status)
}

// valueUnit is one metric in the summary line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the last line of standard output: the run's verdict
// and every metric's median. With several workloads in one run the
// metric names are prefixed "<workload>/".
func summaryLine(reports []*Report) ([]byte, error) {
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: true, Metrics: map[string]valueUnit{}}
	for _, r := range reports {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for n, m := range r.Metrics {
			if len(reports) > 1 {
				n = r.Workload + "/" + n
			}
			line.Metrics[n] = valueUnit{Value: m.Value, Unit: m.Unit}
		}
	}
	return json.Marshal(line)
}
