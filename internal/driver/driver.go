// Package driver implements the concurrent batch-compilation engine: it
// takes a list of source functions (mini-language or .ir text, or
// pre-built ir.Funcs), runs a chosen SSA-destruction pipeline over a
// worker pool, and reports per-phase metrics for the whole batch. It is
// the throughput harness for the paper's compile-time claim (§4.2): the
// algorithm's O(n α(n)) bound only pays off if the surrounding compiler
// can sustain it function after function, so each worker reuses one
// Scratch arena and the steady-state conversion allocates a fraction of a
// cold run.
//
// Concurrency: Run is safe to call from multiple goroutines; each call
// owns its jobs, workers, and results. Within a call, every job is
// compiled by exactly one worker on a private clone of the input, with a
// per-worker Scratch that never crosses goroutines. Results are written
// to a slice slot indexed by job position, so the output order — and,
// because every pipeline pass is deterministic, the output itself — is
// byte-identical regardless of worker count.
//
// Observability is opt-in through Config.Obs (internal/obs): each worker
// carries a phase tracer next to its Scratch, batch counters stream into
// the recorder's registry as jobs finish, and ShardPool keeps the engine
// running as a service a scraper can watch. With Obs nil the
// instrumentation vanishes — nil tracers and nil instruments are free
// no-ops, and the compiled output is byte-identical either way.
package driver

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/cache"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/obs"
	"fastcoalesce/internal/ssa"
)

// Algo selects one of the four SSA-to-CFG conversion pipelines the paper
// compares (§4); the nomenclature follows the paper.
type Algo int

// The pipelines.
const (
	// Standard is the Briggs et al. φ-node instantiation that eliminates
	// no copies.
	Standard Algo = iota
	// New is the paper's algorithm (internal/core).
	New
	// Briggs is the Chaitin/Briggs interference-graph coalescer over the
	// full live-range namespace.
	Briggs
	// BriggsStar is the §4.1 improved interference-graph coalescer
	// (copy-involved names only).
	BriggsStar
)

// String returns the paper's name for the algorithm.
func (a Algo) String() string {
	switch a {
	case Standard:
		return "Standard"
	case New:
		return "New"
	case Briggs:
		return "Briggs"
	case BriggsStar:
		return "Briggs*"
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// Algos lists all pipelines in table order.
var Algos = []Algo{Standard, New, Briggs, BriggsStar}

// ParseAlgo maps a command-line name (standard, new, briggs, briggs*) to
// its Algo.
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "standard":
		return Standard, nil
	case "new":
		return New, nil
	case "briggs":
		return Briggs, nil
	case "briggs*", "briggs-star": // the alias spares shell quoting in scripts
		return BriggsStar, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want standard, new, briggs, or briggs*)", s)
}

// Job is one function to compile. Exactly one input form is used: Func if
// non-nil (cloned, never mutated), otherwise Src — parsed as IR text when
// IR is set, as a one-function mini-language file when not.
type Job struct {
	Name string // optional; defaults to the parsed function's name
	Src  string
	IR   bool
	Func *ir.Func

	// Family is an optional grouping label (the generator family that
	// produced the job); streaming reducers aggregate per family.
	Family string

	// key, when non-nil, is the job's precomputed content address: the
	// ShardPool canonicalizes once at submit time (it needs the hash to
	// pick a shard), so the worker skips re-printing the function.
	key *cache.Key
}

// Result is the outcome of one job, in job order.
type Result struct {
	Index   int
	Name    string
	Family  string   // Job.Family, carried through for streaming reducers
	Func    *ir.Func // the rewritten, φ-free function (nil on error)
	Err     error
	Metrics FuncMetrics

	// Skipped marks a streamed job that was never compiled because the
	// run's context was cancelled after it was pulled but before a
	// worker started it (RunStream's drain). Err then holds the
	// context's cause.
	Skipped bool

	// Cached marks a result served from Config.Cache. Func is then the
	// cache's shared copy and must be treated as read-only; Metrics
	// carries the counts recorded when the entry was filled, with the
	// phase durations zeroed (no pipeline work ran) except Parse.
	Cached bool

	// Revalidated marks a cache hit that was recompiled anyway (an
	// audited job, Config.Check) and byte-compared against the cached
	// entry; a mismatch surfaces as Err. Func is then the fresh, private
	// copy.
	Revalidated bool

	// Report holds the audit findings when Config.Check is enabled (nil
	// otherwise). A finding is not an Err: the pipeline produced output,
	// but the checker disputes it — callers decide how hard to fail.
	Report *analysis.Report
}

// Config configures a batch run. The zero value compiles with the
// Standard pipeline, pruned SSA, one worker per CPU, and scratch reuse.
type Config struct {
	Algo    Algo
	Flavor  ssa.Flavor // SSA flavor; the zero value is Pruned
	Workers int        // worker-pool size; <= 0 means runtime.GOMAXPROCS(0)

	// NoScratch disables per-worker Scratch reuse, making every function
	// allocate cold — the baseline for the allocation experiments.
	NoScratch bool

	// Check audits every job with internal/analysis at the given level.
	// The SSA form is snapshotted before destruction, the pipeline records
	// its name map, and the audit result lands in Result.Report and the
	// Snapshot's check counters. An audited job also never trusts the
	// cache: a hit is compiled anyway and byte-compared against the
	// entry (a cheap translation validation of the cache itself), and a
	// mismatch is a job error.
	Check analysis.Level

	// Obs, when non-nil, turns on observability: each worker gets a phase
	// tracer next to its Scratch, and batch counters flow into the
	// recorder's registry as jobs finish (so a mid-batch /metrics scrape
	// sees live totals). A nil recorder costs nothing — the differential
	// test in this package checks the output is byte-identical either way.
	Obs *obs.Recorder

	// Cache, when non-nil, turns on the content-addressed result cache:
	// after parsing, the worker canonicalizes the input IR into a reused
	// buffer, hashes it together with the configuration fingerprint
	// (algo + flavor), and on a hit skips SSA construction, liveness,
	// coalescing, and verification entirely — the cached output was
	// verified when it was filled, and every pipeline is deterministic,
	// so the entry is the answer. Misses compile normally and fill the
	// cache with a private clone. A nil cache always misses for free.
	Cache *cache.Cache

	// RegallocK, when positive, runs the register allocator over every
	// pipeline's coalesced output with K registers: the function is
	// rewritten with spill code, the coloring is verified against
	// interference computed afresh (regalloc.VerifyAllocationScratch),
	// and the spill statistics land in FuncMetrics/Snapshot. Because
	// allocation changes the output, K joins the cache fingerprint.
	RegallocK int

	// fp is the cache fingerprint, resolved once per run (runStream,
	// ShardPool) so the hot path never rebuilds the string.
	fp string
}

// cacheKey appends the configuration fingerprint and f's canonical text
// to buf and hashes them into f's content address. It returns the grown
// buffer so the caller can reuse it for the next key.
func (cfg *Config) cacheKey(f *ir.Func, buf []byte) (cache.Key, []byte) {
	buf = f.AppendText(append(buf, cfg.fp...))
	return cache.Sum(buf), buf
}

// fingerprint returns the configuration bytes mixed into every cache
// key: anything that changes the compiled output must appear here.
// Check/Obs/Workers are deliberately absent — they never change a bit
// of output (the differential tests pin this).
func (cfg *Config) fingerprint() string {
	fp := cfg.Algo.String() + "/" + cfg.Flavor.String()
	if cfg.RegallocK > 0 {
		fp += "/k" + strconv.Itoa(cfg.RegallocK)
	}
	return fp + "\x00"
}

// Run compiles every job with cfg's pipeline across a worker pool and
// returns the per-job results (indexed by job position) plus an aggregate
// Snapshot. Individual job failures land in Result.Err; Run itself only
// fails by returning those.
func Run(jobs []Job, cfg Config) ([]Result, *Snapshot) {
	// The batch is the streaming engine over a SliceSource, collected
	// into the positional slice. It claims one job per pull: chunk-sized
	// pull and deque buffers per worker would dominate the allocations
	// of a warm-cache batch.
	scs := newScratches(cfg, workerCount(cfg, len(jobs)))
	results := make([]Result, len(jobs))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	runStream(context.Background(), NewSliceSource(jobs), cfg, StreamOptions{},
		sliceReducer(results), scs, 1)
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	snap := summarize(results, cfg.Algo, len(scs), wall, int64(ms1.TotalAlloc-ms0.TotalAlloc), cfg.RegallocK)
	return results, snap
}

// workerCount resolves the pool size: Config.Workers, defaulting to
// GOMAXPROCS, clamped to the job count and a floor of one.
func workerCount(cfg Config, njobs int) int {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > njobs {
		w = njobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// newScratches builds one Scratch per worker, each with its own tracer
// when cfg.Obs is live.
func newScratches(cfg Config, workers int) []*Scratch {
	scs := make([]*Scratch, workers)
	for i := range scs {
		scs[i] = &Scratch{cold: cfg.NoScratch, obs: cfg.Obs.Tracer()}
	}
	return scs
}

// sliceReducer materializes streamed results back into the positional
// slice the batch API promises. Indices are distinct, so concurrent
// writes never alias.
type sliceReducer []Result

func (s sliceReducer) Reduce(r *Result) { s[r.Index] = *r }

// load materializes a job's input function: a prebuilt Func as is
// (shared with the caller, so it must be cloned before it is compiled),
// IR text parsed, or kernel-language source compiled on sc's front-end
// scratch (cold for a nil or cold sc).
func load(j Job, sc *Scratch) (*ir.Func, error) {
	switch {
	case j.Func != nil:
		return j.Func, nil
	case j.IR:
		return ir.Parse(j.Src)
	default:
		return lang.CompileOneScratch(j.Src, sc.langScratch())
	}
}

// fromCache answers res from a cache entry: the entry's shared output
// and the metrics recorded when it was filled, keeping res's parse time.
func fromCache(res *Result, ent *cache.Entry) {
	res.Func = ent.Func
	res.Cached = true
	if fm, ok := ent.Meta.(FuncMetrics); ok {
		fm.Parse = res.Metrics.Parse
		res.Metrics = fm
	}
}

// compileOne runs one job through the configured pipeline on the
// worker's scratch. The scratch also carries the worker's tracer; with
// observability off (nil tracer) every span call below is a free no-op.
func compileOne(idx int, j Job, cfg Config, sc *Scratch) Result {
	tr := sc.tracer()
	if tr != nil {
		name := j.Name
		if name == "" {
			name = "job-" + strconv.Itoa(idx)
		}
		tr.BeginJob(name)
		defer tr.EndJob()
	}
	res := Result{Index: idx, Name: j.Name}
	t0 := time.Now()
	tr.Begin(obs.PhaseParse)
	f, err := load(j, sc)
	if j.Func != nil && cfg.Cache == nil {
		f = f.Clone() // with a cache, a prebuilt job is cloned only on a miss
	}
	tr.End(obs.PhaseParse)
	if err != nil {
		res.Err = err
		return res
	}
	if res.Name == "" {
		res.Name = f.Name
	}
	m := &res.Metrics
	m.Parse = time.Since(t0)

	// The cache fast path: hash the canonical input text (plus the
	// configuration fingerprint) in a reused buffer and look it up. A
	// hit is the whole compile — unless an audit insists on earning it
	// again.
	var key cache.Key
	var hitEnt *cache.Entry
	if cfg.Cache != nil {
		tr.Begin(obs.PhaseCache)
		if j.key != nil {
			key = *j.key
		} else {
			var buf []byte
			key, buf = cfg.cacheKey(f, sc.canonBuf())
			sc.storeCanon(buf)
		}
		var ok bool
		hitEnt, ok = cfg.Cache.Get(key)
		tr.End(obs.PhaseCache)
		if ok && cfg.Check == analysis.None {
			fromCache(&res, hitEnt)
			return res
		}
		if j.Func != nil {
			f = j.Func.Clone()
		}
	}

	t1 := time.Now()
	st, err := BuildSSA(f, cfg, sc)
	if err != nil {
		res.Err = fmt.Errorf("%s: %w", res.Name, err)
		return res
	}
	m.Build = time.Since(t1)
	m.PhisInserted = st.PhisInserted
	m.CopiesFolded = st.CopiesFolded
	m.LivenessVisits = st.LivenessVisits
	m.DomRecomputes = st.DomRecomputes

	// The audit needs the SSA form as destruction saw it, and the name
	// map the pipeline applied. Snapshotting is deliberately outside the
	// timed Destruct span.
	var ssaSnap *ir.Func
	if cfg.Check != analysis.None {
		ssaSnap = f.Clone()
	}

	t2 := time.Now()
	ds, err := Destruct(f, st, cfg, sc)
	if err != nil {
		res.Err = err
		return res
	}
	m.Destruct = time.Since(t2)
	// Only the pipeline that ran filled its stats, so the sums below
	// pick out its counts.
	m.CopiesInserted = ds.Standard.CopiesInserted + ds.Core.CopiesInserted
	m.CopiesCoalesced = ds.Core.InitialUnions + ds.Graph.CopiesCoalesced
	m.LivenessVisits += ds.Core.LivenessVisits
	m.DomRecomputes += ds.Core.DomRecomputes
	m.StaticCopies = f.CountCopies()

	tr.Begin(obs.PhaseVerify)
	err = f.Verify()
	tr.End(obs.PhaseVerify)
	if err != nil {
		res.Err = fmt.Errorf("%s: verify after %v: %w", res.Name, cfg.Algo, err)
		return res
	}

	// The backend: color the coalesced output with K registers. The
	// audit below still wants the pure destruction output (its name map
	// does not extend over spill temporaries), so it is snapshotted
	// first; the cache stores the allocated function — K is part of the
	// fingerprint.
	var preAlloc *ir.Func
	if cfg.RegallocK > 0 {
		if cfg.Check != analysis.None {
			preAlloc = f.Clone()
		}
		t := time.Now()
		ra, err := Allocate(f, cfg, sc)
		if ra != nil {
			m.Spills, m.Reloads = ra.SpilledVars, ra.Reloads
			m.RegallocRounds, m.ColorsUsed = ra.Rounds, ra.ColorsUsed
		}
		if err != nil {
			res.Err = fmt.Errorf("%s: %w", res.Name, err)
			return res
		}
		m.Regalloc = time.Since(t)
		m.MaxPressure = ra.MaxPressure
	}
	res.Func = f

	if cfg.Cache != nil {
		if hitEnt != nil {
			// Revalidation: the fresh compile must reproduce the cached
			// bytes exactly, or the cache (or a pipeline's determinism)
			// is broken and the job fails loudly.
			res.Cached = true
			res.Revalidated = true
			fresh := f.AppendText(sc.canonBuf())
			sc.storeCanon(fresh)
			if !bytes.Equal(fresh, hitEnt.Text) {
				res.Err = fmt.Errorf("%s: cache revalidation: cached output differs from fresh compile under %v", res.Name, cfg.Algo)
				return res
			}
		} else {
			// Fill: store a private clone (callers may mutate res.Func)
			// with the output text as the byte-identity witness and the
			// shape counts as metadata, durations zeroed.
			meta := res.Metrics
			meta.Parse, meta.Build, meta.Destruct, meta.Check, meta.Regalloc = 0, 0, 0, 0, 0
			cfg.Cache.Put(key, &cache.Entry{
				Func: f.Clone(),
				Text: f.AppendText(nil),
				Meta: meta,
			})
		}
	}

	if cfg.Check != analysis.None {
		t3 := time.Now()
		tr.Begin(obs.PhaseCheck)
		out := f
		if preAlloc != nil {
			out = preAlloc // audit the destruction, not the spill rewriting
		}
		unit := &analysis.Unit{
			Algo:    cfg.Algo.String(),
			SSA:     ssaSnap,
			Out:     out,
			NameMap: ds.NameMap,
		}
		res.Report = analysis.RunAll(unit, cfg.Check)
		tr.End(obs.PhaseCheck)
		m.Check = time.Since(t3)
		m.CheckFindings = len(res.Report.Diags)
	}
	return res
}
