// Package obshttp is the HTTP exporter for an obs.Recorder: a handler
// (and a ready-made server) exposing
//
//	/metrics      Prometheus text exposition of the recorder's registry
//	/debug/vars   the same instruments as JSON, plus runtime memstats
//	/debug/pprof  the net/http/pprof profile endpoints
//	/trace        the recorder's retained span timeline as JSON lines
//
// It lives in a subpackage so that instrumented compiler passes can
// import the lightweight obs package without pulling net/http into every
// binary; only the serving front end (cmd/coalesced) links this.
//
// Handlers are safe while a batch is running: the registry reads are
// atomic and the event snapshot locks each worker ring briefly.
package obshttp

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"fastcoalesce/internal/obs"
)

// Handler returns the exporter mux for rec. A nil recorder yields a
// handler that serves empty metrics (useful for wiring tests).
func Handler(rec *obs.Recorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rec.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		writeVars(w, rec)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		tw := obs.NewTraceWriter(w)
		for _, e := range rec.Events() {
			tw.WriteEvent(e, rec.JobName(e.Job))
		}
		tw.Close()
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "fastcoalesce monitor\n\n"+
			"/metrics      Prometheus text format\n"+
			"/debug/vars   metrics as JSON + memstats\n"+
			"/debug/pprof  pprof profiles\n"+
			"/trace        span timeline (JSONL)\n")
	})
	return mux
}

// writeVars renders the /debug/vars body: the registry instruments under
// "metrics", a few runtime memstats, and the trace-drop counter.
func writeVars(w http.ResponseWriter, rec *obs.Recorder) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, `{"memstats": {"alloc": %d, "total_alloc": %d, "sys": %d, "num_gc": %d},`+
		"\n", ms.Alloc, ms.TotalAlloc, ms.Sys, ms.NumGC)
	fmt.Fprintf(w, `"goroutines": %d, "dropped_events": %d, "generation": %d,`+"\n",
		runtime.NumGoroutine(), rec.Dropped(), rec.Gen())
	fmt.Fprint(w, `"metrics": `)
	rec.Registry().WriteJSON(w)
	fmt.Fprint(w, "}\n")
}

// Server wraps http.Server with the exporter handler and a graceful
// stop. Start returns once the listener is bound, so callers can print
// the address before traffic arrives.
type Server struct {
	srv *http.Server
}

// Start binds addr and serves Handler(rec) in a background goroutine.
func Start(addr string, rec *obs.Recorder) (*Server, error) {
	return StartHandler(addr, Handler(rec))
}

// StartHandler is Start for front ends that mount their own routes on
// top of (or around) Handler — cmd/coalesced adds /compile and /healthz
// and delegates the rest here.
func StartHandler(addr string, h http.Handler) (*Server, error) {
	srv := &http.Server{Addr: addr, Handler: h}
	ln, err := newListener(srv)
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	return &Server{srv: srv}, nil
}

// Addr returns the bound listen address (resolved port included).
func (s *Server) Addr() string { return s.srv.Addr }

// Stop gracefully shuts the server down, waiting up to timeout for
// in-flight scrapes.
func (s *Server) Stop(timeout time.Duration) error {
	ctx, cancel := timeoutContext(timeout)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
