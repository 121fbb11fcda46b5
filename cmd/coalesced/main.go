// Command coalesced is the caching compile service: it accepts
// functions over HTTP, compiles them through the sharded worker pool
// (internal/driver.ShardPool), and answers repeated inputs from the
// content-addressed result cache (internal/cache) without running the
// pipeline at all. The observability endpoints of internal/obs/obshttp
// (/metrics, /debug/vars, /trace, /debug/pprof) ride along on the same
// listener, so a scraper watches cache hit rates and queue depths live.
//
// Usage:
//
//	coalesced [flags]
//	coalesced -addr 127.0.0.1:8080 -algo new -cachemb 64 -shards 4
//	curl --data-binary @kernel.kl http://127.0.0.1:8080/compile
//
// Flags:
//
//	-addr     listen address (default 127.0.0.1:8080; :0 picks a port)
//	-algo     standard | new | briggs | briggs*   (default new)
//	-ssa      pruned | semi | minimal             (default pruned)
//	-check    none | fast | full: audit every compile; also forces cache
//	          hits to recompile and byte-compare against their entry
//	-shards   worker shards, rounded up to a power of two (default 4)
//	-queue    per-shard queue depth; a full queue answers 429 (default 64)
//	-cachemb  result-cache budget in MiB; 0 disables caching (default 64)
//
// Endpoints:
//
//	POST /compile   body = one .kl source (any number of functions) or
//	                one .ir function; ?format=kl|ir overrides sniffing.
//	                Responds with the rewritten IR text; X-Cache: hit
//	                when every function came from the cache.
//	GET  /healthz   liveness probe ("ok")
//	     /metrics, /debug/vars, /trace, /debug/pprof  (internal/obshttp)
//
// SIGINT/SIGTERM drains gracefully: the listener stops accepting,
// queued jobs finish, and the session summary prints.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/cache"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/obs"
	"fastcoalesce/internal/obs/obshttp"
	"fastcoalesce/internal/ssa"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "coalesced:", err)
		os.Exit(1)
	}
}

func realMain() error {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (:0 picks a free port)")
	algoName := flag.String("algo", "new", "standard | new | briggs | briggs*")
	flavorName := flag.String("ssa", "pruned", "pruned | semi | minimal")
	checkName := flag.String("check", "none", "audit level: none | fast | full (non-none also revalidates cache hits)")
	shards := flag.Int("shards", 4, "worker shards (rounded up to a power of two)")
	queue := flag.Int("queue", 64, "per-shard queue depth; a full queue answers 429")
	cachemb := flag.Int("cachemb", 64, "result-cache budget in MiB (0 disables the cache)")
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v (coalesced takes work over HTTP, not the command line)", flag.Args())
	}

	algo, err := driver.ParseAlgo(*algoName)
	if err != nil {
		return err
	}
	fl, err := ssa.ParseFlavor(*flavorName)
	if err != nil {
		return err
	}
	check, err := analysis.ParseLevel(*checkName)
	if err != nil {
		return err
	}

	rec := obs.NewRecorder(obs.Options{})
	var c *cache.Cache
	if *cachemb > 0 {
		c = cache.New(cache.Config{MaxBytes: int64(*cachemb) << 20, Reg: rec.Registry()})
	}
	pool := driver.NewShardPool(driver.ShardConfig{
		Config: driver.Config{
			Algo:   algo,
			Flavor: fl,
			Check:  check,
			Cache:  c,
			Obs:    rec,
		},
		Shards: *shards,
		Queue:  *queue,
	})

	srv, err := obshttp.StartHandler(*addr, newFrontEnd(pool, rec))
	if err != nil {
		pool.Close()
		return err
	}
	fmt.Printf("coalesced: serving http://%s/compile (algo %v, %d shards, queue %d, cache %d MiB); SIGINT/SIGTERM drains and exits\n",
		srv.Addr(), algo, pool.NumShards(), *queue, *cachemb)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop()

	// Graceful drain: stop accepting first, then let queued jobs finish.
	err = srv.Stop(5 * time.Second)
	pool.Close()
	st := pool.Stats()
	var cst cache.Stats
	if c != nil {
		cst = c.Stats()
	}
	fmt.Printf("coalesced: drained after %d requests (%d shed); cache %d hits / %d misses / %d evictions\n",
		st.Requests, st.Rejected, cst.Hits, cst.Misses, cst.Evictions)
	return err
}

// frontEnd is the HTTP surface: /compile and /healthz on top of the
// obshttp exporter. Split from main so tests drive it via httptest
// without a process or a signal handler.
type frontEnd struct {
	pool *driver.ShardPool
	mux  *http.ServeMux
}

func newFrontEnd(pool *driver.ShardPool, rec *obs.Recorder) http.Handler {
	fe := &frontEnd{pool: pool, mux: http.NewServeMux()}
	fe.mux.HandleFunc("/compile", fe.handleCompile)
	fe.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	fe.mux.Handle("/", obshttp.Handler(rec))
	return fe.mux
}

// maxBody bounds one request body; a function bigger than this is not a
// kernel, it is an attack.
const maxBody = 8 << 20

// handleCompile accepts one source body, fans its functions through the
// shard pool, and streams the rewritten IR back in input order.
//
//	200  compiled (X-Cache: hit when every function was cached)
//	400  unreadable body, unknown format, parse or compile error
//	429  a shard queue was full (backpressure; retry later)
//	503  the pool is draining for shutdown
func (fe *frontEnd) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a .kl or .ir source body to /compile", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "http"
	}

	jobs, status, err := splitJobs(body, r.URL.Query().Get("format"), name)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}

	results := make([]driver.Result, 0, len(jobs))
	hits := 0
	for _, j := range jobs {
		res, err := fe.pool.Submit(j)
		switch {
		case errors.Is(err, driver.ErrOverloaded):
			http.Error(w, "shard queue full; retry later", http.StatusTooManyRequests)
			return
		case errors.Is(err, driver.ErrClosed):
			http.Error(w, "draining for shutdown", http.StatusServiceUnavailable)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		case res.Err != nil:
			http.Error(w, res.Err.Error(), http.StatusBadRequest)
			return
		}
		if res.Cached {
			hits++
		}
		results = append(results, res)
	}

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if hits == len(results) {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	for _, res := range results {
		io.WriteString(w, res.Func.String())
		io.WriteString(w, "\n")
	}
}

// splitJobs turns one request body into driver jobs: an .ir body is one
// function (the pool parses it), a .kl body may hold several (compiled
// here so each becomes its own job and shard). format is "ir", "kl", or
// "" to sniff — .ir bodies are the ones with block labels.
func splitJobs(body []byte, format, name string) ([]driver.Job, int, error) {
	isIR := false
	switch format {
	case "ir":
		isIR = true
	case "kl", "":
		isIR = format == "" && looksLikeIR(body)
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("unknown format %q (want kl or ir)", format)
	}
	if isIR {
		return []driver.Job{{Name: name, Src: string(body), IR: true}}, 0, nil
	}
	funcs, err := lang.Compile(string(body))
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	jobs := make([]driver.Job, len(funcs))
	for i, f := range funcs {
		jobs[i] = driver.Job{Name: name + ":" + f.Name, Func: f}
	}
	return jobs, 0, nil
}

// looksLikeIR sniffs the body format: IR text carries block labels at
// the start of a line ("b0:", "b12:"), the mini-language never does.
func looksLikeIR(body []byte) bool {
	for _, line := range bytes.Split(body, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) >= 3 && line[0] == 'b' && line[len(line)-1] == ':' {
			if _, err := strconv.ParseUint(string(line[1:len(line)-1]), 10, 32); err == nil {
				return true
			}
		}
	}
	return false
}
