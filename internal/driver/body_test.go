package driver_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/cache"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/obs"
)

// bodyPool is a serving pool with a cache of maxBytes in one shard.
func bodyPool(t *testing.T, check analysis.Level, maxBytes int64) (*driver.ShardPool, *cache.Cache, *obs.Registry) {
	t.Helper()
	rec := obs.NewRecorder(obs.Options{})
	c := cache.New(cache.Config{MaxBytes: maxBytes, Shards: 1, Reg: rec.Registry()})
	pool := driver.NewShardPool(driver.ShardConfig{
		Config: driver.Config{Algo: driver.New, Check: check, Cache: c, Obs: rec},
		Shards: 2,
	})
	t.Cleanup(pool.Close)
	return pool, c, rec.Registry()
}

func submitBody(t *testing.T, pool *driver.ShardPool, body string) driver.Reply {
	t.Helper()
	rep, err := pool.SubmitBody([]byte(body), "", "t")
	if err != nil || rep.Err != nil {
		t.Fatalf("SubmitBody: %v / %v", err, rep.Err)
	}
	return rep
}

func joined(rep driver.Reply) string {
	var b bytes.Buffer
	for _, text := range rep.Texts {
		b.Write(text)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSubmitBodyMemo checks the body memo: a repeated single- or
// multi-function body is answered byte-identically from the cache,
// counted as one request and one cache hit per function, with no cache
// miss and a small fraction of a cold front end's allocation.
func TestSubmitBodyMemo(t *testing.T) {
	ws := bench.Workloads()
	single := ws[0].Src
	multi := ws[1].Src + "\n" + ws[2].Src + "\n" + ws[3].Src
	pool, c, reg := bodyPool(t, analysis.None, 64<<20)
	requests := reg.Counter("fastcoalesce_serve_requests_total", "")
	for _, tc := range []struct {
		name, body string
		funcs      int
	}{{"single", single, 1}, {"multi", multi, 3}} {
		first := submitBody(t, pool, tc.body)
		if first.Hit || len(first.Texts) != tc.funcs {
			t.Fatalf("%s: first answer hit=%v with %d texts", tc.name, first.Hit, len(first.Texts))
		}
		st0, r0 := c.Stats(), requests.Value()
		again := submitBody(t, pool, tc.body)
		st1, r1 := c.Stats(), requests.Value()
		if !again.Hit || joined(again) != joined(first) {
			t.Errorf("%s: repeat hit=%v, bytes equal=%v", tc.name, again.Hit, joined(again) == joined(first))
		}
		if st1.Hits-st0.Hits != int64(tc.funcs) || st1.Misses != st0.Misses || r1-r0 != int64(tc.funcs) {
			t.Errorf("%s: repeat counted %d hits, %d misses, %d requests; want %d, 0, %d",
				tc.name, st1.Hits-st0.Hits, st1.Misses-st0.Misses, r1-r0, tc.funcs, tc.funcs)
		}
	}
	cold := testing.AllocsPerRun(20, func() { lang.Compile(multi) })
	warm := testing.AllocsPerRun(20, func() { pool.SubmitBody([]byte(multi), "", "t") })
	if warm*10 > cold {
		t.Errorf("repeated body allocates %.0f objects, want under a tenth of a cold front end's %.0f", warm, cold)
	}

	// A refused body is never remembered: it is refused again.
	for range 2 {
		if rep, err := pool.SubmitBody([]byte("func oops("), "", "t"); err != nil || rep.Err == nil {
			t.Fatalf("bad body: err %v, reply err %v", err, rep.Err)
		}
	}
}

// TestSubmitBodyEvictedFallsBack remembers a body, evicts its function
// from a one-entry cache, and checks the repeat compiles again with the
// same bytes.
func TestSubmitBodyEvictedFallsBack(t *testing.T) {
	ws := bench.Workloads()
	a, b := ws[0].Src, ws[1].Src
	// A one-shard budget that holds either function's entry, not both.
	sizer, _, _ := bodyPool(t, analysis.None, 64<<20)
	budget := int64(max(len(joined(submitBody(t, sizer, a))), len(joined(submitBody(t, sizer, b))))) + 32
	pool, c, _ := bodyPool(t, analysis.None, budget)
	first := submitBody(t, pool, a)
	submitBody(t, pool, b)
	if c.Stats().Evictions == 0 {
		t.Fatal("the second body evicted nothing; the cache is too large for this test")
	}
	again := submitBody(t, pool, a)
	if again.Hit || joined(again) != joined(first) {
		t.Errorf("evicted repeat: hit=%v, bytes equal=%v; want a miss with the same bytes", again.Hit, joined(again) == joined(first))
	}
}

// TestSubmitBodyAuditedRevalidates checks an audited pool bypasses the
// memo: a repeated body is recompiled and byte-compared against the
// cache entry of each function.
func TestSubmitBodyAuditedRevalidates(t *testing.T) {
	ws := bench.Workloads()
	body := ws[0].Src + "\n" + ws[1].Src
	pool, _, reg := bodyPool(t, analysis.Full, 64<<20)
	revals := reg.Counter("fastcoalesce_cache_revalidations_total", "", obs.L("algo", "New"))
	first := submitBody(t, pool, body)
	again := submitBody(t, pool, body)
	if !again.Hit || joined(again) != joined(first) {
		t.Errorf("audited repeat: hit=%v, bytes equal=%v", again.Hit, joined(again) == joined(first))
	}
	if got := revals.Value(); got != 2 {
		t.Errorf("revalidations = %d, want 2 (one per function of the repeat)", got)
	}
}

// TestSubmitBodyConcurrent mixes repeated and distinct bodies from
// several goroutines; every answer must equal the body's first answer
// (run under -race in CI).
func TestSubmitBodyConcurrent(t *testing.T) {
	ws := bench.Workloads()
	pool, _, _ := bodyPool(t, analysis.None, 64<<20)
	want := make([]string, 8)
	for i := range want {
		want[i] = joined(submitBody(t, pool, ws[i].Src))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (g*7 + i) % len(want)
				body := ws[k].Src
				if i%5 == 0 {
					// A distinct body with the same function: a memo miss
					// that hits the cache.
					body = fmt.Sprintf("%s\n// g%d i%d\n", body, g, i)
				}
				rep, err := pool.SubmitBody([]byte(body), "", "t")
				if err != nil || rep.Err != nil {
					t.Errorf("SubmitBody: %v / %v", err, rep.Err)
					return
				}
				if joined(rep) != want[k] {
					t.Errorf("goroutine %d request %d: answer differs from the first", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}
