package driver

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/cache"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/obs"
)

// Sentinel errors returned by ShardPool.Submit. Job-level failures
// (parse errors, verify failures) ride Result.Err instead — Submit's
// error return is purely transport: the pool could not accept the job.
var (
	// ErrOverloaded means the target shard's queue was full; the caller
	// should shed the request (cmd/coalesced answers 429).
	ErrOverloaded = errors.New("driver: shard queue full")
	// ErrClosed means the pool has drained and will accept nothing more.
	ErrClosed = errors.New("driver: shard pool closed")
)

// ShardConfig configures a ShardPool on top of a batch Config.
type ShardConfig struct {
	Config

	// Shards is the worker/queue count, rounded up to a power of two so
	// routing is a mask of the content hash; <= 0 means 4.
	Shards int

	// Queue is the per-shard queue depth; a full queue makes Submit
	// return ErrOverloaded instead of blocking (backpressure). <= 0
	// means 64.
	Queue int
}

// shardReq is one queued job plus its reply channel.
type shardReq struct {
	idx   int
	job   Job
	reply chan Result
}

// shardWorker is one shard: a bounded queue drained by one goroutine
// with a private Scratch, so identical functions — which hash to the
// same shard — serialize and the second one hits the cache instead of
// compiling twice.
type shardWorker struct {
	queue chan shardReq
	sc    *Scratch
	depth *obs.Gauge
}

// ShardPool is the serving engine behind cmd/coalesced: jobs submitted
// concurrently are content-hashed (the same canonical bytes a cache key
// uses), routed by hash prefix to one of a power-of-two set of worker
// shards, and compiled on that shard's goroutine with its own Scratch.
// Each shard's queue is bounded; a full queue rejects with
// ErrOverloaded rather than queueing unboundedly. When Config.Cache is
// set and Config.Check is off, Submit checks it before enqueueing at
// all, so a warm hit never touches a queue, and SubmitBody answers a
// body it has compiled before from its body memo without parsing it.
//
// Submit and SubmitBody are safe from any number of goroutines. Close
// drains: queued jobs finish, new submissions get ErrClosed.
type ShardPool struct {
	cfg     Config
	workers []*shardWorker
	mask    uint32
	queue   int

	mu     sync.RWMutex // guards closed vs. in-flight enqueues
	closed bool
	wg     sync.WaitGroup
	seq    atomic.Int64

	bm       batchMetrics
	requests *obs.Counter
	rejected *obs.Counter

	nRequests atomic.Int64
	nRejected atomic.Int64

	canon sync.Pool // *[]byte: per-submit canonicalization buffers
	langs sync.Pool // *lang.Scratch: the front end's memory for source jobs

	// memo maps a raw body to its functions' cache keys (SubmitBody); nil
	// without a cache or under an audit.
	memo *bodyMemo
}

// ShardStats is a point-in-time summary of a pool.
type ShardStats struct {
	Shards   int
	Queue    int   // per-shard capacity
	Requests int64 // jobs offered to Submit
	Rejected int64 // jobs shed with ErrOverloaded
}

// NewShardPool starts the shard workers and returns the pool. The
// embedded Config is used exactly as a batch run would: Cache enables
// the submit-time fast path, Check forces hits through the pipeline to
// be revalidated, Obs wires per-shard tracers and the serve metrics.
func NewShardPool(cfg ShardConfig) *ShardPool {
	n := cfg.Shards
	if n <= 0 {
		n = 4
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	depth := cfg.Queue
	if depth <= 0 {
		depth = 64
	}
	c := cfg.Config
	c.fp = c.fingerprint()
	c.Obs.NextGen() // the pool's lifetime is one trace generation
	reg := c.Obs.Registry()
	p := &ShardPool{
		cfg:   c,
		mask:  uint32(pow - 1),
		queue: depth,
		bm:    newBatchMetrics(c),
		requests: reg.Counter("fastcoalesce_serve_requests_total",
			"Jobs offered to the shard pool (accepted or shed)."),
		rejected: reg.Counter("fastcoalesce_serve_rejected_total",
			"Jobs shed with ErrOverloaded (full shard queue)."),
	}
	p.bm.batches.Inc()
	p.canon.New = func() any { return new([]byte) }
	p.langs.New = func() any { return new(lang.Scratch) }
	if c.Cache != nil && c.Check == analysis.None {
		p.memo = new(bodyMemo)
	}
	p.workers = make([]*shardWorker, pow)
	for i := range p.workers {
		w := &shardWorker{
			queue: make(chan shardReq, depth),
			sc:    &Scratch{cold: c.NoScratch, obs: c.Obs.Tracer()},
			depth: reg.Gauge("fastcoalesce_serve_queue_depth",
				"Jobs waiting in one shard's queue.",
				obs.L("shard", strconv.Itoa(i))),
		}
		p.workers[i] = w
		p.wg.Add(1)
		go p.run(w)
	}
	return p
}

// run drains one shard's queue until Close closes it.
func (p *ShardPool) run(w *shardWorker) {
	defer p.wg.Done()
	for req := range w.queue {
		w.depth.Add(-1)
		p.bm.inflight.Add(1)
		res := compileOne(req.idx, req.job, p.cfg, w.sc)
		p.bm.inflight.Add(-1)
		p.bm.observe(&res)
		req.reply <- res
	}
}

// Submit compiles one job through the pool and blocks until its result
// is ready. The returned error is transport-only — ErrOverloaded when
// the target shard's queue is full, ErrClosed after Close — while
// job-level failures come back in Result.Err with a nil error.
//
// The content hash is computed here, on the caller's goroutine: the
// pool needs it to pick a shard, and the worker reuses it as the cache
// key. When the pool has a cache and audits nothing, a resident entry
// is returned immediately without enqueueing anything.
func (p *ShardPool) Submit(j Job) (Result, error) {
	res, _, err := p.submit(j)
	return res, err
}

// submit is Submit, also returning the job's cache key (zero when its
// source did not load).
func (p *ShardPool) submit(j Job) (Result, cache.Key, error) {
	p.requests.Inc()
	p.nRequests.Add(1)
	idx := int(p.seq.Add(1)) - 1
	res := Result{Index: idx, Name: j.Name}

	// Materialize the function: the router hashes canonical IR text, so
	// source forms parse here rather than on the shard. A function
	// parsed here is the pool's own, so a miss compiles it in place.
	t0 := time.Now()
	if j.Func == nil {
		f, err := p.load(j)
		if err != nil {
			res.Err = err
			p.bm.observe(&res)
			return res, cache.Key{}, nil
		}
		j.Func, j.Src, j.owned = f, "", true
	}
	f := j.Func
	if res.Name == "" {
		res.Name = f.Name
		j.Name = res.Name
	}
	res.Metrics.Parse = time.Since(t0)

	bufp := p.canon.Get().(*[]byte)
	key, buf := p.cfg.cacheKey(f, (*bufp)[:0])
	*bufp = buf
	p.canon.Put(bufp)
	j.key = &key

	// Fast path: answer warm hits from the caller's goroutine — no
	// queue slot, no worker wakeup, no backpressure charge. An audited
	// pool leaves hits to the worker, which revalidates them.
	if p.cfg.Cache != nil && p.cfg.Check == analysis.None {
		if ent, ok := p.cfg.Cache.Get(key); ok {
			fromCache(&res, ent)
			p.bm.observe(&res)
			return res, key, nil
		}
	}

	shard := p.workers[shardIndex(key)&p.mask]
	req := shardReq{idx: idx, job: j, reply: make(chan Result, 1)}

	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return res, key, ErrClosed
	}
	select {
	case shard.queue <- req:
		shard.depth.Add(1)
		p.mu.RUnlock()
	default:
		p.mu.RUnlock()
		p.rejected.Inc()
		p.nRejected.Add(1)
		return res, key, ErrOverloaded
	}

	out := <-req.reply
	out.Metrics.Parse += res.Metrics.Parse
	return out, key, nil
}

// load materializes a source job on the caller's goroutine: IR text
// parsed, kernel-language source compiled on a pooled front-end scratch
// (cold under Config.NoScratch).
func (p *ShardPool) load(j Job) (*ir.Func, error) {
	if j.IR {
		return ir.Parse(j.Src)
	}
	sc := p.getLang()
	defer p.putLang(sc)
	return lang.CompileOneScratch(j.Src, sc)
}

// getLang takes a front-end scratch from the pool, or returns nil under
// Config.NoScratch, on which the lang entry points compile cold.
func (p *ShardPool) getLang() *lang.Scratch {
	if p.cfg.NoScratch {
		return nil
	}
	return p.langs.Get().(*lang.Scratch)
}

// putLang gives back a scratch from getLang.
func (p *ShardPool) putLang(sc *lang.Scratch) {
	if sc != nil {
		p.langs.Put(sc)
	}
}

// shardIndex folds the key's leading bytes into the routing integer
// (masked by the pool's shard count). SHA-256 output is uniform, so any
// prefix balances the shards.
func shardIndex(k cache.Key) uint32 {
	return uint32(k[0]) | uint32(k[1])<<8 | uint32(k[2])<<16 | uint32(k[3])<<24
}

// Close drains the pool: every queued job runs to completion, the shard
// goroutines exit, and later Submits return ErrClosed. Idempotent.
func (p *ShardPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	for _, w := range p.workers {
		close(w.queue)
	}
	p.wg.Wait()
}

// NumShards returns the (power-of-two) shard count.
func (p *ShardPool) NumShards() int { return len(p.workers) }

// Stats returns the pool's counters; it works with observability off.
func (p *ShardPool) Stats() ShardStats {
	return ShardStats{
		Shards:   len(p.workers),
		Queue:    p.queue,
		Requests: p.nRequests.Load(),
		Rejected: p.nRejected.Load(),
	}
}
