package driver_test

import (
	"strings"
	"testing"

	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/obs"
)

// TestRecorderDifferential compiles the kernel suite with observability
// off and on (metrics, rings, and a JSONL sink) and checks the compiled
// output is byte-identical — the recorder may only watch, never steer.
func TestRecorderDifferential(t *testing.T) {
	jobs := kernelJobs(t)
	for _, algo := range driver.Algos {
		plain, psnap := driver.Run(jobs, driver.Config{Algo: algo, Workers: 4})
		var sb strings.Builder
		rec := obs.NewRecorder(obs.Options{Trace: &sb})
		traced, tsnap := driver.Run(jobs, driver.Config{Algo: algo, Workers: 4, Obs: rec})
		if err := rec.Close(); err != nil {
			t.Fatalf("%v: trace sink: %v", algo, err)
		}
		if psnap.Errors != 0 || tsnap.Errors != 0 {
			t.Fatalf("%v: errors off=%d on=%d", algo, psnap.Errors, tsnap.Errors)
		}
		if got, want := render(t, traced), render(t, plain); got != want {
			t.Errorf("%v: output with recorder differs from output without", algo)
		}
		if len(rec.Events()) == 0 || sb.Len() == 0 {
			t.Errorf("%v: recorder saw no events (ring %d, jsonl %d bytes)",
				algo, len(rec.Events()), sb.Len())
		}
	}
}

// TestRunMetricsFlow checks the batch counters a scrape would see after
// one run: job totals, per-phase histograms, and the trace timeline all
// reflect the batch.
func TestRunMetricsFlow(t *testing.T) {
	jobs := kernelJobs(t)
	rec := obs.NewRecorder(obs.Options{})
	_, snap := driver.Run(jobs, driver.Config{Algo: driver.New, Workers: 2, Obs: rec})
	if snap.Errors != 0 {
		t.Fatalf("batch errors: %d", snap.Errors)
	}
	var sb strings.Builder
	if err := rec.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`fastcoalesce_jobs_total{algo="New"} ` + itoa(len(jobs)),
		`fastcoalesce_batches_total{algo="New"} 1`,
		`fastcoalesce_phase_duration_ns_count{phase="coalesce-union"}`,
		`fastcoalesce_phase_duration_ns_count{phase="rewrite"}`,
		`fastcoalesce_liveness_visits_total{algo="New"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The timeline: every job span carries the batch generation, and the
	// pipeline phases appear nested inside job spans.
	jobSpans, phaseSpans := 0, 0
	for _, e := range rec.Events() {
		if e.Gen != 1 {
			t.Fatalf("event with generation %d, want 1", e.Gen)
		}
		switch e.Phase {
		case obs.PhaseJob:
			jobSpans++
		case obs.PhaseParse, obs.PhaseLiveness, obs.PhaseDom, obs.PhaseSSABuild,
			obs.PhaseCoalesce1, obs.PhaseCoalesce2, obs.PhaseCoalesce3,
			obs.PhaseRewrite, obs.PhaseVerify:
			phaseSpans++
		}
	}
	if jobSpans != len(jobs) {
		t.Errorf("%d job spans, want %d", jobSpans, len(jobs))
	}
	if phaseSpans < len(jobs)*5 {
		t.Errorf("only %d phase spans for %d jobs", phaseSpans, len(jobs))
	}
	if snap.LivenessVisits <= 0 {
		t.Error("snapshot did not aggregate liveness visits")
	}
}

func itoa(n int) string {
	var b [8]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			return string(b[i:])
		}
	}
}
