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
// JobSource instead hands the scheduler jobs chunk by chunk — from a
// generator that synthesizes them on demand, a disk spool, or a plain
// slice — and a Reducer folds each Result as it is produced, so the
// engine's footprint is O(workers · chunk) no matter how many functions
// flow through. RunCtx is a thin adapter over RunStream (SliceSource +
// a reducer that writes the familiar results slice), so both paths
// share one scheduler.
//
// Scheduling: each worker owns a deque of pulled-but-unstarted jobs. It
// pops from the front; when empty it pulls the next chunk from the
// source (one atomic claim per chunk, not per job); when the source is
// dry it steals the back half of a sibling's deque. Chunked claims keep
// the shared cursor off the hot path, and stealing keeps workers busy
// when job costs are skewed — a deep loop nest next to a stack of
// three-block functions no longer strands the rest of the pool idle
// behind one counter.

// JobSource produces jobs for RunStream. Pull fills dst with up to
// len(dst) consecutive jobs and returns how many it wrote plus the
// global index of the first; n == 0 means the source is permanently
// exhausted. Pull must be safe for concurrent use, and successive calls
// must hand out disjoint, gap-free index ranges (the engine relies on
// global indices for -checkevery sampling and deterministic naming).
type JobSource interface {
	Pull(dst []Job) (n int, base int64)
}

// SliceSource adapts a []Job to the JobSource interface with one atomic
// cursor — with chunk size 1 this is exactly the claim discipline of the
// original batch scheduler.
type SliceSource struct {
	jobs []Job
	next atomic.Int64
}

// NewSliceSource wraps jobs; the slice is not copied.
func NewSliceSource(jobs []Job) *SliceSource {
	return &SliceSource{jobs: jobs}
}

// Pull claims the next run of jobs.
func (s *SliceSource) Pull(dst []Job) (int, int64) {
	n := int64(len(dst))
	base := s.next.Add(n) - n
	if base >= int64(len(s.jobs)) {
		return 0, base
	}
	end := base + n
	if end > int64(len(s.jobs)) {
		end = int64(len(s.jobs))
	}
	copy(dst, s.jobs[base:end])
	return int(end - base), base
}

// Reducer folds streamed results. Reduce is called once per job, from
// worker goroutines, so implementations must be safe for concurrent
// use; the Result (and its Func) must not be retained after the call
// returns — the engine recycles everything. Skipped and failed jobs are
// reduced too (inspect Result.Skipped / Result.Err).
type Reducer interface {
	Reduce(*Result)
}

// StreamOptions tune the streamed scheduler; the zero value gets
// chunked claims with stealing and no check sampling.
type StreamOptions struct {
	// Chunk is the number of jobs claimed from the source per atomic
	// operation; <= 0 means DefaultChunk. Chunk 1 with NoSteal
	// reproduces the single-counter claim loop byte for byte.
	Chunk int

	// NoSteal disables work stealing between worker deques, leaving
	// only the shared source cursor — the baseline the contention
	// microbenchmark compares against.
	NoSteal bool

	// CheckEvery > 1 samples the audit: only jobs whose global index is
	// a multiple of CheckEvery run Config.Check; the rest compile
	// unaudited. 0 or 1 audits every job (when Config.Check is set).
	CheckEvery int

	// DrainSource, on cancellation, keeps pulling from the source and
	// stamps every remaining job Skipped instead of abandoning the
	// cursor. Only set it for finite sources (the slice adapter needs
	// every slot stamped); a generator source would drain forever.
	DrainSource bool

	// Tap, when non-nil, observes every Result after the pipeline and
	// before the Reducer. Same contract as Reducer.Reduce: concurrent
	// calls, no retention. The corpus sweep uses it to capture sampled
	// outputs for the differential spot-check against the batch path.
	Tap func(*Result)
}

// DefaultChunk is the jobs-per-claim used when StreamOptions.Chunk is
// unset: big enough that the source cursor is off the hot path, small
// enough that a steal can still rebalance a skewed tail.
const DefaultChunk = 64

// StreamReport describes one RunStream execution at the engine level —
// scheduler behavior and memory ceiling; per-function aggregates belong
// to the Reducer.
type StreamReport struct {
	Processed int64 // jobs compiled (including errors)
	Skipped   int64 // jobs stamped by the cancellation drain
	Workers   int
	Chunk     int
	Wall      time.Duration
	Pulls     int64 // chunk claims against the source
	Steals    int64 // deque-to-deque transfers
	StolenJob int64 // jobs moved by those steals
	PeakHeap  int64 // max /memory/classes/heap/objects:bytes sampled during the run
}

// deque is one worker's window of pulled jobs. The owner pops from the
// front; thieves take the back half. A single mutex per deque is enough:
// the owner's pop is uncontended until a thief shows up, and one lock
// operation per job is noise next to a pipeline run.
type deque struct {
	mu   sync.Mutex
	buf  []Job
	base int64 // global index of buf[head]
	head int
	tail int // buf[head:tail] are pending
}

// pop takes the front job; ok is false when the deque is empty.
func (d *deque) pop() (j Job, idx int64, ok bool) {
	d.mu.Lock()
	if d.head == d.tail {
		d.mu.Unlock()
		return Job{}, 0, false
	}
	j, idx = d.buf[d.head], d.base
	d.buf[d.head] = Job{} // release the Func/Src to the GC
	d.head++
	d.base++
	d.mu.Unlock()
	return j, idx, true
}

// fill installs n freshly pulled jobs from scratch (the deque must be
// empty: the owner only pulls when it has nothing left).
func (d *deque) fill(jobs []Job, base int64, n int) {
	d.mu.Lock()
	d.buf = d.buf[:0]
	d.buf = append(d.buf, jobs[:n]...)
	d.base, d.head, d.tail = base, 0, n
	d.mu.Unlock()
}

// stealFrom moves the back half of victim's pending jobs into d (which
// must be empty). It returns how many jobs moved. Locks are never held
// pairwise: the segment is copied out of the victim first, then
// installed.
func (d *deque) stealFrom(victim *deque, scratch []Job) (int, []Job) {
	victim.mu.Lock()
	pending := victim.tail - victim.head
	if pending == 0 {
		victim.mu.Unlock()
		return 0, scratch
	}
	n := (pending + 1) / 2
	from := victim.tail - n
	base := victim.base + int64(from-victim.head)
	scratch = append(scratch[:0], victim.buf[from:victim.tail]...)
	for i := from; i < victim.tail; i++ {
		victim.buf[i] = Job{}
	}
	victim.tail = from
	victim.mu.Unlock()
	d.fill(scratch, base, n)
	return n, scratch
}

// RunStream pulls jobs from src until it is exhausted (or ctx is
// cancelled), compiles each with cfg's pipeline, and folds every Result
// into red. Cancellation drains: jobs already popped by a worker run to
// completion, jobs still queued are reduced as Result{Skipped: true},
// and the source is left unpulled (or fully drained under
// opt.DrainSource). Memory stays bounded by workers × chunk regardless
// of how many jobs the source produces.
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
	workers := len(scs)
	chunk := opt.Chunk
	if chunk <= 0 {
		chunk = DefaultChunk
	}
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

	rep := &StreamReport{Workers: workers, Chunk: chunk}
	var pending atomic.Int64 // pulled but not yet reduced
	var exhausted atomic.Bool
	var processed, skipped, pulls, steals, stolen atomic.Int64

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

	deques := make([]*deque, workers)
	for i := range deques {
		deques[i] = &deque{}
	}
	done := ctx.Done()
	cancelled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int, sc *Scratch) {
			defer wg.Done()
			d := deques[self]
			pullBuf := make([]Job, chunk)
			var stealBuf []Job
			// res is reused across jobs: it leaves the stack through the
			// Reducer call, and one heap cell per worker beats one per job
			// (the warm-cache path is pinned to allocate almost nothing).
			var res Result
			spins := 0
			for {
				// 1. Work from the own deque.
				if j, idx, ok := d.pop(); ok {
					spins = 0
					if cancelled() {
						// Drain: the job was pulled but never started.
						res = Result{
							Index: int(idx), Name: j.Name, Family: j.Family,
							Skipped: true, Err: context.Cause(ctx),
						}
						bm.skipped.Inc()
						skipped.Add(1)
					} else {
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
					}
					if opt.Tap != nil {
						opt.Tap(&res)
					}
					red.Reduce(&res)
					pending.Add(-1)
					continue
				}
				// 2. Refill from the source. After cancellation only the
				// DrainSource path keeps pulling (to stamp a finite
				// source's remainder); a generator stops here.
				if !exhausted.Load() && (!cancelled() || opt.DrainSource) {
					n, base := src.Pull(pullBuf)
					if n > 0 {
						pulls.Add(1)
						pending.Add(int64(n))
						d.fill(pullBuf, base, n)
						continue
					}
					exhausted.Store(true)
				}
				// 3. Steal the back half of a sibling's deque.
				if !opt.NoSteal && workers > 1 {
					stole := false
					for off := 1; off < workers; off++ {
						victim := deques[(self+off)%workers]
						var n int
						if n, stealBuf = d.stealFrom(victim, stealBuf); n > 0 {
							steals.Add(1)
							stolen.Add(int64(n))
							stole = true
							break
						}
					}
					if stole {
						continue
					}
				}
				// 4. Nothing anywhere: exit once every pulled job has
				// been reduced and no more can appear.
				if pending.Load() == 0 && (exhausted.Load() || cancelled()) {
					return
				}
				// Someone else still holds work (or the source briefly
				// stalled); yield and look again. The tail of a run spins
				// here at most for the duration of the last jobs.
				spins++
				if spins%64 == 0 {
					time.Sleep(50 * time.Microsecond)
				} else {
					runtime.Gosched()
				}
			}
		}(w, scs[w])
	}
	wg.Wait()
	rep.Wall = time.Since(start)
	close(samplerStop)
	<-samplerDone
	if h := readHeap(); h > peak.Load() {
		peak.Store(h)
	}
	rep.Processed = processed.Load()
	rep.Skipped = skipped.Load()
	rep.Pulls = pulls.Load()
	rep.Steals = steals.Load()
	rep.StolenJob = stolen.Load()
	rep.PeakHeap = peak.Load()
	return rep
}
