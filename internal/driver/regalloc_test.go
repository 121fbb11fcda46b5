package driver_test

import (
	"strings"
	"testing"

	"fastcoalesce/internal/cache"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/obs"
)

// TestRegallocBatch compiles the kernel suite with the allocator enabled
// at a tight k and checks the batch contract: outputs are deterministic
// across worker counts, the snapshot aggregates the allocator's stats,
// and spilling actually happened somewhere in the suite.
func TestRegallocBatch(t *testing.T) {
	jobs := kernelJobs(t)
	for _, algo := range driver.Algos {
		serial, ssnap := driver.Run(jobs, driver.Config{Algo: algo, Workers: 1, RegallocK: 6})
		parallel, psnap := driver.Run(jobs, driver.Config{Algo: algo, Workers: 8, RegallocK: 6})
		if ssnap.Errors != 0 || psnap.Errors != 0 {
			t.Fatalf("%v: errors serial=%d parallel=%d", algo, ssnap.Errors, psnap.Errors)
		}
		if got, want := render(t, parallel), render(t, serial); got != want {
			t.Errorf("%v: allocated output differs across worker counts", algo)
		}
		if psnap.RegallocK != 6 {
			t.Errorf("%v: snapshot RegallocK = %d, want 6", algo, psnap.RegallocK)
		}
		if psnap.Spills == 0 || psnap.Reloads == 0 {
			t.Errorf("%v: suite at k=6 spilled nothing (spills=%d reloads=%d)",
				algo, psnap.Spills, psnap.Reloads)
		}
		if psnap.RegallocRounds < int64(len(jobs)) {
			t.Errorf("%v: %d allocation rounds for %d jobs", algo, psnap.RegallocRounds, len(jobs))
		}
		if psnap.ColorsUsed < 1 || psnap.ColorsUsed > 6 {
			t.Errorf("%v: ColorsUsed = %d, want 1..6", algo, psnap.ColorsUsed)
		}
		if psnap.Regalloc <= 0 {
			t.Errorf("%v: Regalloc time not accounted", algo)
		}
		if !strings.Contains(psnap.Table(), "regalloc:") {
			t.Errorf("%v: snapshot table omits the regalloc line", algo)
		}
	}
}

// TestRegallocCacheKeying checks that the allocator's k participates in
// the cache fingerprint: filling a shared cache at one k and rerunning at
// another must recompile (no cross-k hits), and each run's output must
// match its own uncached baseline.
func TestRegallocCacheKeying(t *testing.T) {
	jobs := kernelJobs(t)
	base8, _ := driver.Run(jobs, driver.Config{Algo: driver.New, Workers: 4, RegallocK: 8})
	base16, _ := driver.Run(jobs, driver.Config{Algo: driver.New, Workers: 4, RegallocK: 16})

	c := cache.New(cache.Config{})
	driver.Run(jobs, driver.Config{Algo: driver.New, Workers: 4, RegallocK: 8, Cache: c}) // fill at k=8
	r16, s16 := driver.Run(jobs, driver.Config{Algo: driver.New, Workers: 4, RegallocK: 16, Cache: c})
	if s16.CacheHits != 0 {
		t.Errorf("k=16 run took %d cache hits from the k=8 fill", s16.CacheHits)
	}
	if got, want := render(t, r16), render(t, base16); got != want {
		t.Error("k=16 output through the shared cache differs from uncached")
	}
	warm8, s8 := driver.Run(jobs, driver.Config{Algo: driver.New, Workers: 4, RegallocK: 8, Cache: c})
	if s8.CacheHits != int64(len(jobs)) {
		t.Errorf("k=8 rerun hit %d of %d jobs", s8.CacheHits, len(jobs))
	}
	if got, want := render(t, warm8), render(t, base8); got != want {
		t.Error("k=8 cache-served output differs from uncached")
	}
	if s8.Regalloc != 0 {
		t.Errorf("cache-served run reports %v allocator time", s8.Regalloc)
	}
}

// TestRegallocObsFlow checks the observability contract: with the
// allocator on, the scrape carries the regalloc phase histograms and the
// fastcoalesce_regalloc_* series, labeled with the batch's k.
func TestRegallocObsFlow(t *testing.T) {
	jobs := kernelJobs(t)
	rec := obs.NewRecorder(obs.Options{})
	_, snap := driver.Run(jobs, driver.Config{Algo: driver.New, Workers: 2, RegallocK: 6, Obs: rec})
	if snap.Errors != 0 {
		t.Fatalf("batch errors: %d", snap.Errors)
	}
	var sb strings.Builder
	if err := rec.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`fastcoalesce_phase_duration_ns_count{phase="regalloc-build"}`,
		`fastcoalesce_phase_duration_ns_count{phase="regalloc-color"}`,
		`fastcoalesce_phase_duration_ns_count{phase="regalloc-verify"}`,
		`fastcoalesce_regalloc_spills_total{algo="New",k="6"}`,
		`fastcoalesce_regalloc_reloads_total{algo="New",k="6"}`,
		`fastcoalesce_regalloc_rounds_total{algo="New",k="6"}`,
		`fastcoalesce_regalloc_colors_used_count{algo="New",k="6"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The spill phase only runs for functions that spill; at k=6 the suite
	// spills, so the span must appear in the timeline.
	spillSpans := 0
	for _, e := range rec.Events() {
		if e.Phase == obs.PhaseRegallocSpill {
			spillSpans++
		}
	}
	if spillSpans == 0 {
		t.Error("no regalloc-spill spans in the timeline at k=6")
	}
}

// TestRegallocOffLeavesNoTrace checks the k=0 default really is off: no
// allocator series registered, no regalloc table line, zero stats.
func TestRegallocOffLeavesNoTrace(t *testing.T) {
	jobs := kernelJobs(t)
	rec := obs.NewRecorder(obs.Options{})
	_, snap := driver.Run(jobs, driver.Config{Algo: driver.New, Workers: 2, Obs: rec})
	if snap.Errors != 0 {
		t.Fatalf("batch errors: %d", snap.Errors)
	}
	if snap.Spills != 0 || snap.Reloads != 0 || snap.Regalloc != 0 {
		t.Errorf("allocator stats nonzero with RegallocK=0: %+v", snap)
	}
	if strings.Contains(snap.Table(), "regalloc:") {
		t.Error("snapshot table shows a regalloc line with the allocator off")
	}
	var sb strings.Builder
	if err := rec.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "fastcoalesce_regalloc_spills_total") {
		t.Error("allocator series registered with the allocator off")
	}
}
