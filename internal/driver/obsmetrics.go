package driver

import (
	"strconv"

	"fastcoalesce/internal/obs"
)

// batchMetrics are the registry instruments a batch bumps as jobs
// finish, resolved once per run from Config.Obs. With observability off
// every instrument is nil and every bump a free no-op, so the worker
// loop needs no branches.
type batchMetrics struct {
	batches   *obs.Counter
	jobs      *obs.Counter
	errors    *obs.Counter
	inflight  *obs.Gauge
	inserted  *obs.Counter
	coalesced *obs.Counter
	visits    *obs.Counter
	domruns   *obs.Counter
	static    *obs.Histogram
	revals    *obs.Counter

	// Allocator instruments, registered only when Config.RegallocK is
	// positive (nil — free no-ops — otherwise).
	spills   *obs.Counter
	reloads  *obs.Counter
	rarounds *obs.Counter
	colors   *obs.Histogram
}

func newBatchMetrics(cfg Config) batchMetrics {
	reg := cfg.Obs.Registry()
	algo := obs.L("algo", cfg.Algo.String())
	bm := batchMetrics{
		batches: reg.Counter("fastcoalesce_batches_total",
			"Batch runs started.", algo),
		jobs: reg.Counter("fastcoalesce_jobs_total",
			"Jobs compiled (including failures).", algo),
		errors: reg.Counter("fastcoalesce_job_errors_total",
			"Jobs that failed to parse, convert, or verify.", algo),
		inflight: reg.Gauge("fastcoalesce_inflight_jobs",
			"Jobs being compiled right now."),
		inserted: reg.Counter("fastcoalesce_copies_inserted_total",
			"Copies materialized by SSA destruction.", algo),
		coalesced: reg.Counter("fastcoalesce_copies_coalesced_total",
			"Copies eliminated (unions / graph coalesces).", algo),
		visits: reg.Counter("fastcoalesce_liveness_visits_total",
			"Liveness solver work: block evaluations by the worklist solver, (name, block) pairs explored by path exploration.", algo),
		domruns: reg.Counter("fastcoalesce_dom_recomputes_total",
			"Dominator-tree computations.", algo),
		static: reg.Histogram("fastcoalesce_static_copies",
			"Copy instructions left per compiled function.",
			obs.Pow2Buckets(0, 12), algo),
		revals: reg.Counter("fastcoalesce_cache_revalidations_total",
			"Cache hits recompiled and byte-compared against the entry.", algo),
	}
	if cfg.RegallocK > 0 {
		k := obs.L("k", strconv.Itoa(cfg.RegallocK))
		bm.spills = reg.Counter("fastcoalesce_regalloc_spills_total",
			"Live ranges sent to the spill array.", algo, k)
		bm.reloads = reg.Counter("fastcoalesce_regalloc_reloads_total",
			"Reload instructions inserted by spilling.", algo, k)
		bm.rarounds = reg.Counter("fastcoalesce_regalloc_rounds_total",
			"Build/color attempts until the interference graph colored.", algo, k)
		bm.colors = reg.Histogram("fastcoalesce_regalloc_colors_used",
			"Distinct registers used per allocated function.",
			obs.Pow2Buckets(0, 8), algo, k)
	}
	return bm
}

// observe folds one finished job into the instruments.
func (m *batchMetrics) observe(r *Result) {
	m.jobs.Inc()
	if r.Err != nil {
		m.errors.Inc()
		return
	}
	if r.Revalidated {
		m.revals.Inc()
	}
	if r.Cached && !r.Revalidated {
		// A cache hit ran no pipeline: the work counters stay put, and
		// the cache's own fastcoalesce_cache_hits_total accounts for it.
		return
	}
	m.inserted.Add(int64(r.Metrics.CopiesInserted))
	m.coalesced.Add(int64(r.Metrics.CopiesCoalesced))
	m.visits.Add(int64(r.Metrics.LivenessVisits))
	m.domruns.Add(int64(r.Metrics.DomRecomputes))
	m.static.Observe(int64(r.Metrics.StaticCopies))
	if m.spills != nil {
		m.spills.Add(int64(r.Metrics.Spills))
		m.reloads.Add(int64(r.Metrics.Reloads))
		m.rarounds.Add(int64(r.Metrics.RegallocRounds))
		m.colors.Observe(int64(r.Metrics.ColorsUsed))
	}
}
