package driver_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/cache"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/obs"
	"fastcoalesce/internal/ssa"
)

// TestShardPoolMatchesRun submits the kernel suite through the shard
// pool from many goroutines and checks every output is byte-identical
// to a plain batch run of the same jobs.
func TestShardPoolMatchesRun(t *testing.T) {
	jobs := kernelJobs(t)
	batch, snap := driver.Run(jobs, driver.Config{Algo: driver.New, Workers: 1})
	if snap.Errors != 0 {
		t.Fatalf("batch errors: %d", snap.Errors)
	}
	want := map[string]string{}
	for _, r := range batch {
		want[r.Name] = r.Func.String()
	}

	pool := driver.NewShardPool(driver.ShardConfig{
		Config: driver.Config{Algo: driver.New, Cache: cache.New(cache.Config{})},
		Shards: 4,
		Queue:  64,
	})
	defer pool.Close()
	const rounds = 4
	var wg sync.WaitGroup
	outs := make([]map[string]string, rounds)
	for g := 0; g < rounds; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g] = map[string]string{}
			for _, j := range jobs {
				res, err := pool.Submit(j)
				if err != nil {
					t.Errorf("submit %s: %v", j.Name, err)
					return
				}
				if res.Err != nil {
					t.Errorf("compile %s: %v", j.Name, res.Err)
					return
				}
				outs[g][res.Name] = res.Func.String()
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < rounds; g++ {
		for name, text := range outs[g] {
			if text != want[name] {
				t.Errorf("round %d: %s differs from batch output", g, name)
			}
		}
	}
	st := pool.Stats()
	if st.Requests != int64(rounds*len(jobs)) || st.Rejected != 0 {
		t.Errorf("stats = %+v, want %d requests, 0 rejected", st, rounds*len(jobs))
	}
}

// TestShardPoolBackpressure pins the overload contract with a
// one-shard, one-slot pool: while the worker chews a big function and
// the queue slot is taken, the next submission is shed with
// ErrOverloaded — it neither blocks nor queues.
func TestShardPoolBackpressure(t *testing.T) {
	// Pre-built inputs keep Submit's own latency tiny, so the worker is
	// still busy with big1 when big2 and the shed job arrive.
	bigJob := func(seed int64) driver.Job {
		t.Helper()
		w := bench.Generate(seed, bench.GenConfig{Stmts: 4000, MaxDepth: 4, Scalars: 4, Arrays: 2})
		f, err := bench.CompileWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		return driver.Job{Name: w.Name, Func: f}
	}
	big1, big2 := bigJob(1), bigJob(2)
	small := kernelJobs(t)[0]

	rec := obs.NewRecorder(obs.Options{})
	pool := driver.NewShardPool(driver.ShardConfig{
		Config: driver.Config{Algo: driver.New, Obs: rec},
		Shards: 1,
		Queue:  1,
	})
	defer pool.Close()

	reg := rec.Registry()
	inflight := reg.Gauge("fastcoalesce_inflight_jobs", "")
	depth := reg.Gauge("fastcoalesce_serve_queue_depth", "", obs.L("shard", "0"))
	waitFor := func(what string, g *obs.Gauge, v int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			if g.Value() == v {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		t.Fatalf("timed out waiting for %s = %d", what, v)
	}

	var wg sync.WaitGroup
	submit := func(j driver.Job) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := pool.Submit(j); err != nil || res.Err != nil {
				t.Errorf("submit %s: %v / %v", j.Name, err, res.Err)
			}
		}()
	}
	submit(big1)
	waitFor("inflight", inflight, 1) // the worker claimed it
	submit(big2)
	waitFor("queue depth", depth, 1) // the only slot is taken

	_, err := pool.Submit(small)
	if !errors.Is(err, driver.ErrOverloaded) {
		t.Fatalf("submit into a full queue: err = %v, want ErrOverloaded", err)
	}
	wg.Wait()
	st := pool.Stats()
	if st.Rejected != 1 || st.Requests != 3 {
		t.Errorf("stats = %+v, want 3 requests / 1 rejected", st)
	}
	if got := reg.Counter("fastcoalesce_serve_rejected_total", "").Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

// TestShardPoolCacheFastPath checks warm submissions answer from the
// caller's goroutine: after one round fills the cache, a second round
// comes back Cached without ever enqueueing.
func TestShardPoolCacheFastPath(t *testing.T) {
	jobs := kernelJobs(t)
	c := cache.New(cache.Config{})
	pool := driver.NewShardPool(driver.ShardConfig{
		Config: driver.Config{Algo: driver.New, Cache: c},
		Shards: 2,
	})
	defer pool.Close()
	for _, j := range jobs {
		if res, err := pool.Submit(j); err != nil || res.Err != nil {
			t.Fatalf("cold %s: %v / %v", j.Name, err, res.Err)
		}
	}
	for _, j := range jobs {
		res, err := pool.Submit(j)
		if err != nil || res.Err != nil {
			t.Fatalf("warm %s: %v / %v", j.Name, err, res.Err)
		}
		if !res.Cached {
			t.Errorf("warm %s was not served from the cache", j.Name)
		}
	}
	if st := c.Stats(); st.Hits < int64(len(jobs)) {
		t.Errorf("cache hits = %d, want >= %d", st.Hits, len(jobs))
	}
}

// TestShardPoolRevalidatesUnderCheck checks that an audited pool never
// serves a cache entry unchecked: a resubmitted kernel is recompiled
// and byte-compared against its entry, and a poisoned entry under a
// real key fails the job instead of being returned.
func TestShardPoolRevalidatesUnderCheck(t *testing.T) {
	jobs := kernelJobs(t)
	c := cache.New(cache.Config{})
	pool := driver.NewShardPool(driver.ShardConfig{
		Config: driver.Config{Algo: driver.New, Check: analysis.Fast, Cache: c},
		Shards: 2,
	})
	defer pool.Close()
	var res driver.Result
	for round := 0; round < 2; round++ {
		var err error
		if res, err = pool.Submit(jobs[0]); err != nil || res.Err != nil {
			t.Fatalf("round %d %s: %v / %v", round, jobs[0].Name, err, res.Err)
		}
	}
	if !res.Cached || !res.Revalidated {
		t.Errorf("resubmitted %s: cached=%v revalidated=%v, want both",
			jobs[0].Name, res.Cached, res.Revalidated)
	}

	poisoned := jobs[1]
	c.Put(cacheKeyFor(t, poisoned.Src, driver.New, ssa.Pruned),
		&cache.Entry{Text: []byte("not the real output\n")})
	res, err := pool.Submit(poisoned)
	if err != nil {
		t.Fatalf("submit %s: %v", poisoned.Name, err)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "cache revalidation") {
		t.Fatalf("poisoned %s: err = %v, want a cache revalidation mismatch", poisoned.Name, res.Err)
	}
}

// TestShardPoolClose checks the drain contract: Close is idempotent,
// queued work completes, and later submissions get ErrClosed — also
// when Close races concurrent submitters (the -race job watches).
func TestShardPoolClose(t *testing.T) {
	jobs := kernelJobs(t)
	pool := driver.NewShardPool(driver.ShardConfig{
		Config: driver.Config{Algo: driver.New},
		Shards: 2,
		Queue:  8,
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range jobs {
				res, err := pool.Submit(j)
				switch {
				case errors.Is(err, driver.ErrClosed), errors.Is(err, driver.ErrOverloaded):
					return // the pool said no; that is a valid answer here
				case err != nil:
					t.Errorf("submit: %v", err)
					return
				case res.Err != nil:
					t.Errorf("compile %s: %v", j.Name, res.Err)
					return
				}
			}
		}()
	}
	time.Sleep(time.Millisecond)
	pool.Close()
	pool.Close() // idempotent
	wg.Wait()
	if _, err := pool.Submit(jobs[0]); !errors.Is(err, driver.ErrClosed) {
		t.Fatalf("submit after Close: err = %v, want ErrClosed", err)
	}
}
