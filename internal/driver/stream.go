package driver

import (
	"context"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"fastcoalesce/internal/analysis"
)

// The streaming engine: the batch path in driver.go materializes every
// job and every result, which caps a run at whatever fits in memory. A
// JobSource instead hands the workers jobs one at a time — from a
// generator that synthesizes them on demand, a disk spool, or a plain
// slice — and a Reducer folds each Result as it is produced, so the
// engine holds at most one job per worker no matter how many functions
// flow through. Run is a thin adapter over the same workers
// (SliceSource + a reducer that writes the familiar results slice).
//
// Scheduling: a free worker claims the next job from the source,
// compiles it and reduces it. A deep loop nest costs only the worker
// that claimed it; the others keep claiming the jobs behind it.

// JobSource produces jobs for RunStream. Next claims the next job and
// returns it with its global index; ok == false means the source is
// permanently dry. Next must be safe for concurrent use, and successive
// claims must hand out distinct, gap-free indices (the engine relies on
// global indices for -checkevery sampling and deterministic naming).
type JobSource interface {
	Next() (j Job, idx int64, ok bool)
}

// SliceSource adapts a []Job to the JobSource interface with one atomic
// cursor.
type SliceSource struct {
	jobs []Job
	next atomic.Int64
}

// NewSliceSource wraps jobs; the slice is not copied.
func NewSliceSource(jobs []Job) *SliceSource {
	return &SliceSource{jobs: jobs}
}

// Next claims the next job.
func (s *SliceSource) Next() (Job, int64, bool) {
	i := s.next.Add(1) - 1
	if i >= int64(len(s.jobs)) {
		return Job{}, i, false
	}
	return s.jobs[i], i, true
}

// Reducer folds streamed results. Reduce is called once per job, from
// worker goroutines, so implementations must be safe for concurrent
// use; the Result (and its Func) must not be retained after the call
// returns — the engine recycles everything. Failed jobs are reduced too
// (inspect Result.Err).
type Reducer interface {
	Reduce(*Result)
}

// StreamOptions tune a streamed run; the zero value audits every job
// (when Config.Check is set) and taps nothing.
type StreamOptions struct {
	// CheckEvery > 1 samples the audit: only jobs whose global index is
	// a multiple of CheckEvery run Config.Check; the rest compile
	// unaudited. 0 or 1 audits every job (when Config.Check is set).
	CheckEvery int

	// Tap, when non-nil, observes every Result after the pipeline and
	// before the Reducer. Same contract as Reducer.Reduce: concurrent
	// calls, no retention. The corpus sweep uses it to capture sampled
	// outputs for the differential spot-check against the batch path.
	Tap func(*Result)
}

// StreamReport describes one RunStream execution at the engine level —
// job count, wall time and memory ceiling; per-function aggregates
// belong to the Reducer.
type StreamReport struct {
	Processed int64 // jobs claimed and compiled (including errors)
	Workers   int
	Wall      time.Duration
	PeakHeap  int64 // max /memory/classes/heap/objects:bytes sampled during the run

	// Pulls, Steals and StolenJob are kept only because the benchmark
	// module still reports them. Pulls counts claims and so equals
	// Processed; nothing is stolen, so Steals and StolenJob are zero.
	Pulls     int64
	Steals    int64
	StolenJob int64
}

// RunStream claims jobs from src until it is dry (or ctx is
// cancelled), compiles each with cfg's pipeline, and folds every Result
// into red. Cancellation stops the claims: every claimed job runs to
// completion and is reduced, and the rest of the source stays unpulled.
// Each worker holds one job at a time, however many jobs the source
// produces.
func RunStream(ctx context.Context, src JobSource, cfg Config, opt StreamOptions, red Reducer) *StreamReport {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return runStream(ctx, src, cfg, opt, red, newScratches(cfg, workers))
}

// runStream is RunStream over caller-built scratches, one per worker
// (the batch adapter builds them outside its allocation measurement).
func runStream(ctx context.Context, src JobSource, cfg Config, opt StreamOptions, red Reducer, scs []*Scratch) *StreamReport {
	cfg.fp = cfg.fingerprint()
	cfg.Obs.NextGen() // one trace generation per streamed batch
	bm := newBatchMetrics(cfg)
	bm.batches.Inc()

	// Check sampling needs two configs: the audited one and a copy with
	// the checker off. Selection is by global job index, so the sampled
	// set is independent of scheduling.
	sampled := cfg
	if opt.CheckEvery > 1 {
		cfg.Check = analysis.None
	}

	var processed atomic.Int64

	// Peak-heap sampling: runtime/metrics reads are cheap (no
	// stop-the-world), so a sampler goroutine polls while the run is
	// live and the report carries the high-water mark.
	heapSample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	readHeap := func() int64 {
		rtmetrics.Read(heapSample)
		if heapSample[0].Value.Kind() == rtmetrics.KindUint64 {
			return int64(heapSample[0].Value.Uint64())
		}
		return 0
	}
	var peak atomic.Int64
	peak.Store(readHeap())
	samplerDone := make(chan struct{})
	samplerStop := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case <-tick.C:
				if h := readHeap(); h > peak.Load() {
					peak.Store(h)
				}
			}
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for _, sc := range scs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// res is reused across jobs: it leaves the stack through the
			// Reducer call, and one heap cell per worker beats one per job
			// (the warm-cache path is pinned to allocate almost nothing).
			var res Result
			for ctx.Err() == nil {
				j, idx, ok := src.Next()
				if !ok {
					return
				}
				c := &cfg
				if opt.CheckEvery > 1 && idx%int64(opt.CheckEvery) == 0 {
					c = &sampled
				}
				bm.inflight.Add(1)
				res = compileOne(int(idx), j, *c, sc)
				res.Family = j.Family
				bm.inflight.Add(-1)
				processed.Add(1)
				bm.observe(&res)
				if opt.Tap != nil {
					opt.Tap(&res)
				}
				red.Reduce(&res)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(samplerStop)
	<-samplerDone
	if h := readHeap(); h > peak.Load() {
		peak.Store(h)
	}
	n := processed.Load()
	return &StreamReport{Processed: n, Workers: len(scs), Wall: wall, PeakHeap: peak.Load(), Pulls: n}
}
