package main

import (
	"context"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/interp"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/obs"
)

// The in-process workloads (suite, large, corpus) drive the batch
// engine through its public streaming entry point, driver.RunStream.
// A window is a fixed job count, run once with New and once with
// Briggs* (alternating which goes first); every end-to-end value is
// the median over a run's windows.

// timedAlgos are the pipelines every workload times: the paper's
// algorithm and its strongest baseline (§4, Table 2).
var timedAlgos = []driver.Algo{driver.New, driver.BriggsStar}

// inproc describes one in-process workload.
type inproc struct {
	name       string
	workers    int
	regallocK  int
	checkEvery int // audit every Nth job at analysis.Full (0: none)
	// windowS is the nominal length of one window (both pipelines) at
	// the commit that defined the benchmark; with --seconds it fixes the
	// window count, so a run does the same work on every commit.
	windowS float64
	njobs   int64                   // jobs per window and pipeline
	perPass int64                   // jobs in one pass over the function set
	source  func() driver.JobSource // a fresh source of the window's jobs
	setup   func() driver.JobSource // the warm-up set timed as setup_s
	fns     []*fn                   // the function set (corpus: one size cycle per family)
	// check runs the untimed correctness pass: it fails rep on any
	// wrong output and returns the New output's dynamic copies and the
	// digest a window must reproduce (0: none, the first window is the
	// reference).
	check func(rep *Report) (dyn int64, digest uint64)
	// sample, when set, captures window outputs; replay checks them
	// and returns their dynamic copies.
	sample func(*driver.Result)
	replay func(rep *Report) (dyn int64)
}

// windowOut is one pipeline's pass over one window.
type windowOut struct {
	wall   time.Duration
	stream *driver.StreamReport
	col    *collector
	rt     runtimeDelta
	cpu    time.Duration
}

// collector is the windows' Reducer: counts, a schedule-independent
// output digest, and each job's latency by the driver's own clock.
type collector struct {
	rep      *Report
	jobs     atomic.Int64
	static   atomic.Int64
	spillOps atomic.Int64
	digest   atomic.Uint64
	lat      []float64 // ms, indexed by job
	inserted atomic.Int64
	coal     atomic.Int64
	visits   atomic.Int64
	domCalls atomic.Int64
}

func (c *collector) Reduce(r *driver.Result) {
	c.jobs.Add(1)
	if r.Err != nil {
		c.rep.fail("%s: %v", r.Name, r.Err)
		return
	}
	if r.Report != nil && r.Report.Failed() {
		c.rep.fail("%s: audit: %s", r.Name, r.Report.Diags[0])
	}
	m := &r.Metrics
	c.static.Add(int64(m.StaticCopies))
	c.spillOps.Add(int64(m.Spills + m.Reloads))
	c.inserted.Add(int64(m.CopiesInserted))
	c.coal.Add(int64(m.CopiesCoalesced))
	c.visits.Add(int64(m.LivenessVisits))
	c.domCalls.Add(int64(m.DomRecomputes))
	c.digest.Add(indexedDigest(r.Index, r.Func))
	if r.Index < len(c.lat) {
		c.lat[r.Index] = ms(m.Parse + m.Build + m.Destruct + m.Regalloc + m.Check)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// funcDigest hashes a function's structure (FNV-1a over blocks, edges
// and instructions). It is much cheaper than printing the text, so
// every window can afford it; the correctness pass compares text.
func funcDigest(f *ir.Func) uint64 {
	h := uint64(14695981039346656037)
	put := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	put(uint64(len(f.Blocks)))
	put(uint64(len(f.VarNames)))
	for _, b := range f.Blocks {
		if b == nil {
			put(1 << 40)
			continue
		}
		for _, s := range b.Succs {
			put(uint64(s))
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			put(uint64(in.Op)<<32 | uint64(uint32(in.Def)))
			put(uint64(in.Const))
			put(uint64(in.Arr))
			for _, a := range in.Args {
				put(uint64(a))
			}
		}
	}
	return h
}

// indexedDigest binds a digest to its job index; windows sum these, so
// the total does not depend on the order workers finish in.
func indexedDigest(idx int, f *ir.Func) uint64 {
	if f == nil {
		return 0
	}
	return uint64(mix(int64(funcDigest(f)), int64(idx)))
}

// runtimeDelta is the Go runtime's accounting over a window, per job.
type runtimeDelta struct {
	allocBytes float64
	gcCycles   float64 // per 1000 jobs
}

var rtSamples = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() [2]float64 {
	s := make([]rtmetrics.Sample, len(rtSamples))
	for i, n := range rtSamples {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == rtmetrics.KindUint64 {
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWindow streams one window through algo's pipeline; rec, when
// non-nil, traces it.
func (w *inproc) runWindow(ctx context.Context, rep *Report, algo driver.Algo, rec *obs.Recorder, sample func(*driver.Result)) *windowOut {
	cfg := driver.Config{Algo: algo, Workers: w.workers, RegallocK: w.regallocK, Obs: rec}
	if w.checkEvery > 0 {
		cfg.Check = analysis.Full
	}
	out := &windowOut{col: &collector{rep: rep, lat: make([]float64, w.njobs)}}
	src := w.source()
	// Collect the previous window's garbage first, so its cost and its
	// heap do not land in this window.
	runtime.GC()
	rt0, cpu0 := readRuntime(), cpuTime()
	t0 := time.Now()
	out.stream = driver.RunStream(ctx, src, cfg, driver.StreamOptions{CheckEvery: w.checkEvery, Tap: sample}, out.col)
	out.wall = time.Since(t0)
	rt1, cpu1 := readRuntime(), cpuTime()
	out.cpu = cpu1 - cpu0
	n := float64(out.col.jobs.Load())
	out.rt = runtimeDelta{allocBytes: (rt1[0] - rt0[0]) / n, gcCycles: (rt1[1] - rt0[1]) * 1000 / n}
	rep.attempt(out.col.jobs.Load())
	if got := out.col.jobs.Load(); got != w.njobs {
		rep.fail("%v window compiled %d of %d jobs", algo, got, w.njobs)
	}
	return out
}

// windows returns how many windows a run of the given length makes.
func windows(seconds int, windowS float64) int {
	n := int(float64(seconds) / windowS)
	if n < minWindows {
		n = minWindows
	}
	return n
}

// minWindows is the fewest windows a run measures.
const minWindows = 3

// setupRuns is how many times a run times its set-up; setup_s is their
// median.
const setupRuns = 21

// warmup is the least time a run spends in untimed windows before it
// measures.
const warmup = 2 * time.Second

// run executes the untimed correctness pass, the set-up samples and the
// windows, and reports the end-to-end set.
func (w *inproc) run(ctx context.Context, seconds int) *Report {
	rep := newReport(w.name, false)
	_, want := w.check(rep)

	// Each pass over the warm-up set is one setup_s sample.
	var setup []float64
	for i := 0; i < setupRuns && ctx.Err() == nil; i++ {
		t0 := time.Now()
		for _, algo := range timedAlgos {
			driver.RunStream(ctx, w.setup(), driver.Config{Algo: algo, Workers: w.workers, RegallocK: w.regallocK},
				driver.StreamOptions{}, &collector{rep: rep})
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	// Untimed full windows follow, at least one per pipeline, until warmup
	// has elapsed: without them the first windows of a corpus run were
	// 20-30% slower than the rest.
	for start := time.Now(); ctx.Err() == nil; {
		for _, algo := range timedAlgos {
			w.runWindow(ctx, rep, algo, nil, nil)
		}
		if time.Since(start) >= warmup {
			break
		}
	}

	tput := map[driver.Algo][]float64{}
	var p50, p90, heap, static []float64
	nw := windows(seconds, w.windowS)
	for i := 0; i < nw && ctx.Err() == nil; i++ {
		for k := range timedAlgos {
			algo := timedAlgos[(i+k)%len(timedAlgos)]
			var sample func(*driver.Result)
			if i == 0 && algo == driver.New {
				sample = w.sample
			}
			out := w.runWindow(ctx, rep, algo, nil, sample)
			tput[algo] = append(tput[algo], float64(out.col.jobs.Load())/out.wall.Seconds())
			if algo != driver.New {
				continue
			}
			if want == 0 {
				want = out.col.digest.Load()
			}
			if d := out.col.digest.Load(); d != want {
				rep.fail("window %d: New output digest %x differs from the checked output's %x", i, d, want)
			}
			p50 = append(p50, percentile(out.col.lat, 50))
			p90 = append(p90, percentile(out.col.lat, 90))
			heap = append(heap, float64(out.stream.PeakHeap)/(1<<20))
			static = append(static, float64(out.col.static.Load())/float64(w.njobs/w.perPass))
			if static[len(static)-1] != static[0] {
				rep.fail("window %d: New static copies differ from window 0", i)
			}
		}
	}
	if w.replay != nil {
		w.replay(rep)
	}
	rep.set("setup_s", setup...)
	rep.set(newTput, tput[driver.New]...)
	rep.set(starTput, tput[driver.BriggsStar]...)
	rep.set("p50_ms", p50...)
	rep.set("p90_ms", p90...)
	rep.set("peak_heap_mib", heap...)
	rep.set("static_copies", static...)
	rep.complete()
	return rep
}

// runTraced makes one untraced and one traced window per pipeline,
// runs the probe, and reports the per-layer set.
func (w *inproc) runTraced(ctx context.Context, log *spanLog) *Report {
	rep := newReport(w.name, true)
	dyn, want := w.check(rep)
	ringCap := int(w.njobs)*32 + 1024
	traced := map[string]float64{}
	untraced := map[string]float64{}
	var spills int64
	for _, algo := range timedAlgos {
		var sample func(*driver.Result)
		if algo == driver.New {
			sample = w.sample
		}
		plain := w.runWindow(ctx, rep, algo, nil, sample)
		recStart := time.Now()
		rec := obs.NewRecorder(obs.Options{RingCap: ringCap})
		winStart := time.Now()
		out := w.runWindow(ctx, rep, algo, rec, nil)
		winID := log.record(log.id(), 0, "benchmark", fmt.Sprintf("window %s/%v", w.name, algo), winStart, winStart.Add(out.wall))
		if d := rec.Dropped(); d != 0 {
			rep.fail("%v traced window dropped %d events", algo, d)
		}
		if out.col.digest.Load() != plain.col.digest.Load() || (algo == driver.New && want != 0 && plain.col.digest.Load() != want) {
			rep.fail("%v output differs with tracing on", algo)
		}
		self, jobs := phaseSelf(rec, recStart, log, winID)
		if jobs != w.njobs {
			rep.fail("%v traced window recorded %d job spans for %d jobs", algo, jobs, w.njobs)
			jobs = max(jobs, 1)
		}
		p := prefix(algo)
		per := func(phases ...string) float64 {
			var t time.Duration
			for _, ph := range phases {
				t += self[ph]
			}
			return float64(t) / float64(jobs)
		}
		rep.set(p+"lang.parse.ns", per("parse"))
		rep.set(p+"dom.ns", per("dom", "dom-snca"))
		rep.set(p+"liveness.ns", per("liveness", "liveness-sparse"))
		rep.set(p+"ssa.build.ns", per("ssa-build"))
		rep.set(p+"ir.verify.ns", per("verify"))
		n := float64(plain.col.jobs.Load())
		rep.set(p+"dom.calls", float64(plain.col.domCalls.Load())/n)
		rep.set(p+"liveness.visits", float64(plain.col.visits.Load())/n)
		rep.set(p+"runtime.alloc_bytes", plain.rt.allocBytes)
		rep.set(p+"runtime.gc_cycles", plain.rt.gcCycles)
		all := map[string]float64{}
		for ph := range self {
			all[ph] = per(ph)
		}
		rep.Info[p+"phase_self_ns"] = all
		if fam := familyJobNs(rec); len(fam) > 0 {
			rep.Info[p+"family_job_ns"] = fam
		}
		if algo == driver.New {
			rep.set("new.core.union.ns", per("coalesce-union"))
			rep.set("new.core.forest.ns", per("coalesce-forest"))
			rep.set("new.core.local.ns", per("coalesce-local"))
			rep.set("new.core.rewrite.ns", per("rewrite"))
			rep.set("new.driver.job.ns", per("job"))
			ins, coal := float64(plain.col.inserted.Load()), float64(plain.col.coal.Load())
			rep.set("new.core.copies_inserted", ins/n)
			rep.set("new.core.coalesced_ratio", coal/max(1, coal+ins))
			rep.set("driver.stream.pulls", float64(plain.stream.Pulls))
			rep.set("driver.stream.steals", float64(plain.stream.Steals))
			rep.set("driver.stream.stolen_jobs", float64(plain.stream.StolenJob))
			rep.set("driver.busy_ratio", plain.cpu.Seconds()/(plain.wall.Seconds()*float64(plain.stream.Workers)))
			rep.set("obs.trace_overhead", out.wall.Seconds()/plain.wall.Seconds()-1)
			spills = plain.col.spillOps.Load()
		} else {
			rep.set("briggs-star.ifgraph.ns", per("job"))
			rep.set("briggs-star.ifgraph.coalesced", float64(plain.col.coal.Load())/n)
		}
		untraced[p+"funcs_per_s"] = n / plain.wall.Seconds()
		traced[p+"funcs_per_s"] = float64(jobs) / out.wall.Seconds()
	}
	rep.Info["end_to_end_untraced"] = untraced
	rep.Info["end_to_end_traced"] = traced
	if w.replay != nil {
		dyn += w.replay(rep)
	}
	if w.regallocK == 0 {
		spills = allocSpills(rep, w.fns)
	}
	rep.set("new.core.dynamic_copies", float64(dyn))
	rep.set("new.regalloc.spill_ops", float64(spills))
	// The serving layers are bypassed in process.
	for _, name := range []string{"cache.hit_ratio", "cache.evictions", "driver.shard.queue_depth_mean", "driver.shard.queue_depth_max", "driver.shard.rejected"} {
		rep.set(name, 0)
	}
	runProbe(rep, w.fns, log)
	rep.complete()
	return rep
}

// prefix is the metric-name prefix of a pipeline.
func prefix(a driver.Algo) string {
	if a == driver.BriggsStar {
		return "briggs-star."
	}
	return "new."
}

// checkOutputs compiles fns with each pipeline (untimed) and checks
// every output: no job error, equal behaviour under the interpreter on
// the function's inputs, and — for the functions audit selects — a clean
// analysis.Full audit. It returns the New output's dynamic and static
// copies and the digest of passes repetitions of the New outputs (what
// a window of SliceSource jobs must reproduce).
func checkOutputs(rep *Report, fns []*fn, algos []driver.Algo, audit func(*fn) bool, passes int) (dyn, static int64, digest uint64) {
	jobs := make([]driver.Job, len(fns))
	for i, f := range fns {
		jobs[i] = f.job()
	}
	for _, algo := range algos {
		res, _ := driver.Run(jobs, driver.Config{Algo: algo, Workers: 1})
		rep.attempt(int64(len(res)))
		for i, r := range res {
			f := fns[i]
			if r.Err != nil {
				rep.fail("%v %s: %v", algo, f.name, r.Err)
				continue
			}
			copies, err := sameBehaviour(f, r.Func)
			if err != nil {
				rep.fail("%v %s: %v", algo, f.name, err)
			}
			if algo != driver.New {
				continue
			}
			dyn += copies
			static += int64(r.Func.CountCopies())
			for p := 0; p < passes; p++ {
				digest += indexedDigest(p*len(fns)+i, r.Func)
			}
		}
	}
	var audited []driver.Job
	for _, f := range fns {
		if audit(f) {
			audited = append(audited, f.job())
		}
	}
	for _, algo := range algos {
		res, _ := driver.Run(audited, driver.Config{Algo: algo, Workers: 1, Check: analysis.Full})
		rep.attempt(int64(len(res)))
		for _, r := range res {
			if r.Err != nil {
				rep.fail("%v %s audit: %v", algo, r.Name, r.Err)
			} else if r.Report.Failed() {
				rep.fail("%v %s audit: %s", algo, r.Name, r.Report.Diags[0])
			}
		}
	}
	return dyn, static, digest
}

// regallocK is the register count spill operations are measured at.
const regallocK = 8

// allocSpills allocates New's output for fns with regallocK registers
// and returns the spill operations (spills plus reloads).
func allocSpills(rep *Report, fns []*fn) (spills int64) {
	jobs := make([]driver.Job, len(fns))
	for i, f := range fns {
		jobs[i] = f.job()
	}
	res, _ := driver.Run(jobs, driver.Config{Algo: driver.New, Workers: 1, RegallocK: regallocK})
	rep.attempt(int64(len(res)))
	for _, r := range res {
		if r.Err != nil {
			rep.fail("New k=%d %s: %v", regallocK, r.Name, r.Err)
			continue
		}
		spills += int64(r.Metrics.Spills + r.Metrics.Reloads)
	}
	return spills
}

// sameBehaviour runs the original function and out on f's inputs and
// reports out's executed copies, or how the two differ.
func sameBehaviour(f *fn, out *ir.Func) (int64, error) {
	orig, err := f.original()
	if err != nil {
		return 0, err
	}
	want, err := f.run(orig)
	if err != nil {
		return 0, fmt.Errorf("original: %w", err)
	}
	got, err := f.run(out)
	if err != nil {
		return 0, fmt.Errorf("output: %w", err)
	}
	if !interp.SameResult(want, got) {
		return 0, fmt.Errorf("output diverges from the original (%s)", interp.ExplainMismatch(want, got))
	}
	return got.Counts.Copies, nil
}

// sliceJobs repeats fns' jobs passes times.
func sliceJobs(fns []*fn, passes int) []driver.Job {
	jobs := make([]driver.Job, 0, passes*len(fns))
	for p := 0; p < passes; p++ {
		for _, f := range fns {
			jobs = append(jobs, f.job())
		}
	}
	return jobs
}

// suiteWorkload: the 29 kernels from source, closed loop, one worker.
func suiteWorkload(passes int) *inproc {
	fns := suiteFns()
	jobs := sliceJobs(fns, passes)
	once := sliceJobs(fns, 1)
	return &inproc{
		name: "suite", workers: 1, windowS: 0.16,
		njobs: int64(len(jobs)), perPass: int64(len(fns)),
		source: func() driver.JobSource { return driver.NewSliceSource(jobs) },
		setup:  func() driver.JobSource { return driver.NewSliceSource(once) },
		fns:    fns,
		check: func(rep *Report) (int64, uint64) {
			// Every pipeline is checked against the original, not just the
			// timed ones (Table 4's correctness rests on all four).
			dyn, _, digest := checkOutputs(rep, fns, driver.Algos, func(*fn) bool { return false }, passes)
			return dyn, digest
		},
	}
}

// largeWorkload: 24 functions of 500–3 200 blocks, one worker.
func largeWorkload(seed int64, scale float64) *inproc {
	fns := largeFns(seed, scale)
	jobs := sliceJobs(fns, 1)
	// Set-up warms the pipelines on the smallest generated function and
	// the smallest family member.
	warm := []driver.Job{fns[0].job(), fns[len(largeGenStmts)].job()}
	return &inproc{
		name: "large", workers: 1, windowS: 2.0,
		njobs: int64(len(jobs)), perPass: int64(len(jobs)),
		source: func() driver.JobSource { return driver.NewSliceSource(jobs) },
		setup:  func() driver.JobSource { return driver.NewSliceSource(warm) },
		fns:    fns,
		check: func(rep *Report) (int64, uint64) {
			// The audit is quadratic in blocks, so it runs on the family
			// members up to 1 100 blocks; every function is also checked
			// under the interpreter.
			dyn, _, digest := checkOutputs(rep, fns, timedAlgos, func(f *fn) bool {
				return f.ir != nil && len(f.ir.Blocks) <= 1100
			}, 1)
			return dyn, digest
		},
	}
}

// corpusWorkload: the streamed generator corpus with regalloc and
// sampled audits, two workers with chunked stealing.
func corpusWorkload(seed, n int64) *inproc {
	var mu sync.Mutex
	captured := map[int64][]byte{}
	newSource := func(n int64) *bench.CorpusSource {
		// Every family, the default skewed size cycle.
		src, err := bench.NewCorpusSource(bench.CorpusSpec{N: n, Seed: seed})
		if err != nil {
			panic(err) // the spec is fixed; an error is a bug
		}
		return src
	}
	w := &inproc{
		name: "corpus", workers: 2, regallocK: regallocK, checkEvery: corpusCheckEvery, windowS: 1.1,
		njobs: n, perPass: n,
		source: func() driver.JobSource { return newSource(n) },
		setup:  func() driver.JobSource { return newSource(min(n, corpusSetupJobs)) },
	}
	cycle := newSource(56) // one full size cycle of every family
	for i := int64(0); i < 56; i++ {
		f, err := corpusFn(cycle, seed, i)
		if err != nil {
			panic(err)
		}
		w.fns = append(w.fns, f)
	}
	// The corpus is never materialized, so there is no reference digest:
	// windows are compared with the first one, and the replay compares
	// bytes.
	w.check = func(rep *Report) (int64, uint64) { return 0, 0 }
	w.sample = func(r *driver.Result) {
		if int64(r.Index)%corpusSampleEvery != 0 || r.Func == nil {
			return
		}
		text := r.Func.AppendText(nil)
		mu.Lock()
		captured[int64(r.Index)] = text
		mu.Unlock()
	}
	w.replay = func(rep *Report) int64 {
		mu.Lock()
		defer mu.Unlock()
		return replayCorpus(rep, newSource(n), seed, captured)
	}
	return w
}

const (
	// corpusCheckEvery is the corpus audit sampling interval.
	corpusCheckEvery = 256
	// corpusSampleEvery is the replay sampling interval.
	corpusSampleEvery = 16
	// corpusSetupJobs is the size of the corpus warm-up set.
	corpusSetupJobs = 100
)

// replayCorpus re-synthesizes every captured index, compiles it through
// driver.Run under the window's configuration and compares bytes; every
// sample also runs under the interpreter against the original. It
// returns the samples' dynamic copies.
func replayCorpus(rep *Report, src *bench.CorpusSource, seed int64, captured map[int64][]byte) (dyn int64) {
	if len(captured) == 0 {
		rep.fail("corpus: no window output was captured for the replay check")
	}
	cfg := driver.Config{Algo: driver.New, Workers: 1, RegallocK: regallocK}
	for idx, text := range captured {
		f, err := corpusFn(src, seed, idx)
		if err != nil {
			rep.fail("%v", err)
			continue
		}
		res, _ := driver.Run([]driver.Job{src.JobAt(idx)}, cfg)
		rep.attempt(1)
		if res[0].Err != nil {
			rep.fail("corpus replay %s: %v", f.name, res[0].Err)
			continue
		}
		if got := res[0].Func.AppendText(nil); string(got) != string(text) {
			rep.fail("corpus replay %s: streamed output differs from driver.Run", f.name)
			continue
		}
		copies, err := sameBehaviour(f, res[0].Func)
		if err != nil {
			rep.fail("corpus %s: %v", f.name, err)
		}
		dyn += copies
	}
	return dyn
}
