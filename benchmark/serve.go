package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fastcoalesce/internal/driver"
)

// The serve workload drives a freshly built cmd/coalesced, run with its
// default settings, over loopback HTTP. All load comes from this
// process, through two sender goroutines with one connection each (the
// machine the workload was sized on has two CPUs, shared by client and
// server); a monitor polls the server's /debug/vars. Each run spawns its
// own servers, so no cache state leaks between runs.

// serveCfg sizes the serve workload (the tests shrink it).
type serveCfg struct {
	seed      int64
	hot, cold int       // hot-set size and cold templates
	nominalN  int       // requests per nominal window
	capacityN int       // requests per closed-loop capacity window
	warmN     int       // cold requests per server before the windows
	ladder    []float64 // rates of the (recorded, not gated) ladder
	ladderS   float64   // seconds per ladder step
}

func defaultServeCfg(seed int64) serveCfg {
	return serveCfg{
		seed: seed, hot: 64, cold: 256, nominalN: 250, capacityN: 300, warmN: 500,
		ladder: []float64{1000, 2000, 4000}, ladderS: 0.6,
	}
}

// The serve workload's fixed parameters. The traffic mix — the hot
// share, the Zipf exponent and the nominal rate — is an assumption, not
// a measurement of real traffic: no trace of compile-service requests
// was available to fit it to.
const (
	hotShare    = 0.8 // share of nominal requests drawn from the hot set
	zipfS       = 1.1 // Zipf exponent over the hot set
	nominalRate = 500 // open-loop rate of the nominal windows, requests/s
	// serveWindowS is the length of one window (a nominal window plus
	// one capacity window per pipeline) at the defining commit; with
	// --seconds it fixes the window count.
	serveWindowS = 1.0
	sloMs        = 20 // cold p90 limit that defines max_rps
	coldSample   = 16 // every coldSample-th cold response is byte-checked
)

// serverProc is one running coalesced.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// firstLine captures the first line a process writes and discards the
// rest.
type firstLine struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	ch   chan string
}

func (f *firstLine) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.sent {
		f.buf = append(f.buf, p...)
		if i := bytes.IndexByte(f.buf, '\n'); i >= 0 {
			f.ch <- string(f.buf[:i])
			f.sent = true
			f.buf = nil
		}
	}
	return len(p), nil
}

// startServer spawns bin on a free loopback port and waits for its
// health check.
func startServer(bin string, args ...string) (*serverProc, error) {
	out := &firstLine{ch: make(chan string, 1)}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout, cmd.Stderr = out, &stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serverProc{cmd: cmd, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	select {
	case line := <-out.ch:
		i, j := strings.Index(line, "http://"), strings.Index(line, "/compile")
		if i < 0 || j < i {
			s.stop()
			return nil, fmt.Errorf("coalesced: unexpected banner %q", line)
		}
		s.addr = line[i+len("http://") : j]
	case err := <-s.done:
		s.done <- err
		return nil, fmt.Errorf("coalesced exited at start: %v: %s", err, stderr.String())
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, errors.New("coalesced did not report its address")
	}
	resp, err := http.Get("http://" + s.addr + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop drains the server with SIGTERM (killing it after a grace period)
// and waits for it to exit.
func (s *serverProc) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// cpu returns the server's user plus system CPU time so far (Linux).
func (s *serverProc) cpu() time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields, in clock ticks of 1/100 s.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// buildServer compiles cmd/coalesced from the checkout at root into its
// .bench_build directory.
func buildServer(root string) (string, time.Duration, error) {
	bin, err := filepath.Abs(filepath.Join(root, ".bench_build", "coalesced"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/coalesced")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building coalesced: %v: %s", err, out)
	}
	return bin, time.Since(t0), nil
}

// newClient returns an HTTP client with a single connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// senders is the number of load-generating goroutines (and connections).
const senders = 2

// request is one /compile call.
type request struct {
	body []byte
	hot  bool
	fn   *fn    // the hot function or cold template
	name string // the function's name in body
}

// outcome is one request's timeline and response. due is when the
// schedule wanted it sent; start is when its latency clock starts: the
// due time if the sender was still busy with an earlier request (so a
// stall is charged to every request behind it), else the moment the
// sender woke for it (so the sender's own timer slack is not).
type outcome struct {
	due, start, sent, done time.Time
	status                 int
	hit                    bool
	err                    error
	body                   []byte
}

func (o *outcome) latencyMs() float64 { return ms(o.done.Sub(o.start)) }
func (o *outcome) ok() bool           { return o.err == nil && o.status == http.StatusOK }

// post sends one request.
func post(c *http.Client, addr string, body []byte) (status int, hit bool, resp []byte, err error) {
	r, err := c.Post("http://"+addr+"/compile", "text/plain", bytes.NewReader(body))
	if err != nil {
		return 0, false, nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, r.Header.Get("X-Cache") == "hit", resp, err
}

// load is one server's client side.
type load struct {
	addr    string
	clients [senders]*http.Client
	log     *spanLog
}

func newLoad(addr string, log *spanLog) *load {
	l := &load{addr: addr, log: log}
	for i := range l.clients {
		l.clients[i] = newClient()
	}
	return l
}

func (l *load) close() {
	for _, c := range l.clients {
		c.CloseIdleConnections()
	}
}

// send issues r on sender s and records its timeline in o.
func (l *load) send(s int, r *request, o *outcome, parent int64) {
	o.sent = time.Now()
	o.status, o.hit, o.body, o.err = post(l.clients[s], l.addr, r.body)
	o.done = time.Now()
	if l.log != nil {
		trace := l.log.id()
		kind := "cold"
		if r.hot {
			kind = "hot"
		}
		id := l.log.record(trace, parent, "coalesced", "request "+kind+" "+r.name, o.start, o.done)
		l.log.record(trace, id, "benchmark", "wait", o.start, o.sent)
		l.log.record(trace, id, "coalesced", "http", o.sent, o.done)
	}
}

// openLoop sends reqs at a fixed rate regardless of completions: request
// i is due at start + i/rate and goes out on sender i mod senders.
func (l *load) openLoop(ctx context.Context, reqs []request, rate float64, parent int64) []outcome {
	out := make([]outcome, len(reqs))
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(reqs); i += senders {
				if ctx.Err() != nil {
					out[i].err = ctx.Err()
					continue
				}
				o := &out[i]
				o.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				o.start = o.due
				if d := time.Until(o.due); d > 0 {
					time.Sleep(d)
					o.start = time.Now()
				}
				l.send(s, &reqs[i], o, parent)
			}
		}(s)
	}
	wg.Wait()
	return out
}

// closedLoop sends reqs back to back from every sender and returns the
// outcomes and the wall time.
func (l *load) closedLoop(ctx context.Context, reqs []request, parent int64) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i].due = time.Now()
				out[i].start = out[i].due
				l.send(s, &reqs[i], &out[i], parent)
			}
		}(s)
	}
	wg.Wait()
	return out, time.Since(t0)
}

// serveInputs holds a run's generated functions.
type serveInputs struct {
	cfg       serveCfg
	hot, cold []*fn
}

// coldRequest derives the k-th cold request of a phase from a cold
// template; the name (unique per server) makes it a function the server
// has never seen, so every cold request misses the cache. Templates are
// taken in turn, and their sizes cycle, so every phase asks for the same
// mix of sizes whatever the seed.
func (in *serveInputs) coldRequest(k int, name string) request {
	t := in.cold[k%len(in.cold)]
	return request{body: []byte(renamed(t, name)), fn: t, name: name}
}

// mixRequests builds n requests of the nominal mix: exactly the hot
// share of them, at seeded positions, are Zipf-drawn hot functions. The
// pattern and the choice of functions depend only on the seed, so every
// window and ladder step sends the same mix; cold names carry tag and so
// are new to the server every time.
func (in *serveInputs) mixRequests(n int, tag string) []request {
	rng := rand.New(rand.NewSource(mix(in.cfg.seed, 6)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(in.hot)-1))
	cold := make([]bool, n)
	for _, i := range rng.Perm(n)[:int(math.Round(float64(n)*(1-hotShare)))] {
		cold[i] = true
	}
	reqs := make([]request, n)
	k := 0
	for i := range reqs {
		if !cold[i] {
			reqs[i] = hotRequest(in.hot[zipf.Uint64()])
			continue
		}
		reqs[i] = in.coldRequest(k, fmt.Sprintf("%s_%d", tag, i))
		k++
	}
	return reqs
}

// coldRequests builds n cache-missing requests.
func (in *serveInputs) coldRequests(n int, tag string) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = in.coldRequest(i, fmt.Sprintf("%s_%d", tag, i))
	}
	return reqs
}

// all returns every served function: the hot set, then the cold
// templates.
func (in *serveInputs) all() []*fn {
	return append(append([]*fn(nil), in.hot...), in.cold...)
}

// hotRequests asks for every hot function once.
func (in *serveInputs) hotRequests() []request {
	reqs := make([]request, len(in.hot))
	for i, h := range in.hot {
		reqs[i] = hotRequest(h)
	}
	return reqs
}

func hotRequest(h *fn) request {
	return request{body: []byte(h.src), hot: true, fn: h, name: h.name}
}

// monitor polls a server's /debug/vars: heap in use and the summed
// shard queue depth.
type monitor struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	obs  []varsSample
}

type varsSample struct {
	at         time.Time
	heap       float64 // bytes of live heap objects
	totalAlloc float64
	numGC      float64
	queue      float64
}

// monitorEvery is the /debug/vars polling period.
const monitorEvery = 50 * time.Millisecond

func startMonitor(addr string) *monitor {
	m := &monitor{stop: make(chan struct{}), done: make(chan struct{})}
	c := newClient()
	go func() {
		defer close(m.done)
		defer c.CloseIdleConnections()
		tick := time.NewTicker(monitorEvery)
		defer tick.Stop()
		for {
			if v, err := readVars(c, addr); err == nil {
				m.mu.Lock()
				m.obs = append(m.obs, v)
				m.mu.Unlock()
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

func (m *monitor) close() {
	close(m.stop)
	<-m.done
}

// between returns the samples taken in [a, b].
func (m *monitor) between(a, b time.Time) []varsSample {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []varsSample
	for _, v := range m.obs {
		if !v.at.Before(a) && !v.at.After(b) {
			out = append(out, v)
		}
	}
	return out
}

func readVars(c *http.Client, addr string) (varsSample, error) {
	r, err := c.Get("http://" + addr + "/debug/vars")
	if err != nil {
		return varsSample{}, err
	}
	defer r.Body.Close()
	var body struct {
		Memstats struct {
			Alloc      float64 `json:"alloc"`
			TotalAlloc float64 `json:"total_alloc"`
			NumGC      float64 `json:"num_gc"`
		} `json:"memstats"`
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		return varsSample{}, err
	}
	v := varsSample{at: time.Now(), heap: body.Memstats.Alloc, totalAlloc: body.Memstats.TotalAlloc, numGC: body.Memstats.NumGC}
	for k, raw := range body.Metrics {
		if strings.HasPrefix(k, "fastcoalesce_serve_queue_depth{") {
			n, _ := strconv.ParseFloat(string(raw), 64)
			v.queue += n
		}
	}
	return v, nil
}

// scrape reads /metrics into a map from "name{labels}" to value.
func scrape(addr string) (map[string]float64, error) {
	r, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after minus before for one series.
func delta(before, after map[string]float64, key string) float64 { return after[key] - before[key] }

// deltaPrefix sums delta over every series whose key starts with prefix
// (a metric name plus leading labels), so a label added or removed
// later does not zero the sum.
func deltaPrefix(before, after map[string]float64, prefix string) float64 {
	var d float64
	for key := range after {
		if strings.HasPrefix(key, prefix) {
			d += delta(before, after, key)
		}
	}
	return d
}

// stepStats summarizes one open-loop step.
type stepStats struct {
	Rate      float64 `json:"rate"`
	Requests  int     `json:"requests"`
	Failed    int     `json:"failed"`
	P50       float64 `json:"p50_ms"`
	P90       float64 `json:"p90_ms"`
	P99       float64 `json:"p99_ms"`
	WarmP50   float64 `json:"warm_p50_ms"`
	WarmP90   float64 `json:"warm_p90_ms"`
	WarmP99   float64 `json:"warm_p99_ms"`
	ColdP50   float64 `json:"cold_p50_ms"`
	ColdP90   float64 `json:"cold_p90_ms"`
	ColdP99   float64 `json:"cold_p99_ms"`
	LateMaxMs float64 `json:"late_max_ms"`
	Backlog   bool    `json:"growing_backlog"`
	Passed    bool    `json:"meets_slo"`
}

// failedMs is the latency a failed or refused request enters the
// percentiles with: it misses any limit (and stays valid JSON).
const failedMs = math.MaxFloat64

// summarizeStep computes a step's percentiles.
func summarizeStep(rate float64, out []outcome) stepStats {
	st := stepStats{Rate: rate, Requests: len(out)}
	var all, warm, cold []float64
	for i := range out {
		o := &out[i]
		lat := o.latencyMs()
		if !o.ok() {
			st.Failed++
			lat = failedMs
		}
		all = append(all, lat)
		if o.ok() && o.hit {
			warm = append(warm, lat)
		} else {
			cold = append(cold, lat)
		}
		if late := ms(o.sent.Sub(o.due)); late > st.LateMaxMs {
			st.LateMaxMs = late
		}
	}
	fifth := len(all) / 5
	first := percentile(append([]float64(nil), all[:fifth]...), 50)
	last := percentile(append([]float64(nil), all[len(all)-fifth:]...), 50)
	st.Backlog = last > 2*first
	st.P50, st.P90, st.P99 = percentile(all, 50), percentile(all, 90), percentile(all, 99)
	st.WarmP50, st.WarmP90, st.WarmP99 = percentile(warm, 50), percentile(warm, 90), percentile(warm, 99)
	st.ColdP50, st.ColdP90, st.ColdP99 = percentile(cold, 50), percentile(cold, 90), percentile(cold, 99)
	st.Passed = float64(st.Failed) <= 0.01*float64(len(out)) && !st.Backlog && st.ColdP90 <= sloMs
	return st
}

// maxRPS interpolates, on log scales, the rate at which cold p90
// crosses the limit between the last passing and first failing steps.
// Without a failing step it returns the highest rate tried.
func maxRPS(steps []stepStats) (rps float64, bounded bool) {
	for i, s := range steps {
		if s.Passed {
			continue
		}
		if i == 0 {
			return 0, true
		}
		p := steps[i-1]
		if s.ColdP90 == failedMs || s.ColdP90 <= p.ColdP90 {
			return p.Rate, true
		}
		t := (math.Log(sloMs) - math.Log(p.ColdP90)) / (math.Log(s.ColdP90) - math.Log(p.ColdP90))
		t = math.Max(0, math.Min(1, t))
		return math.Exp(math.Log(p.Rate) + t*(math.Log(s.Rate)-math.Log(p.Rate))), true
	}
	return steps[len(steps)-1].Rate, false
}

// serveRun is the state of one serve workload run.
type serveRun struct {
	cfg     serveCfg
	in      *serveInputs
	rep     *Report
	root    string
	bin     string
	log     *spanLog
	newSrv  *serverProc
	starSrv *serverProc
	newLoad *load
	starLd  *load
	mon     *monitor
	// hotBodies are the New server's responses to the hot-set fill;
	// samples every coldSample-th cold response. verify checks both
	// against the in-process driver.
	hotBodies [][]byte
	samples   []servedSample
}

// servedSample is one cold response kept for the byte check.
type servedSample struct {
	f    *fn // the cold template
	name string
	algo driver.Algo
	body []byte
}

// setupServer spawns a New server, waits for its health check and fills
// the hot set (one request per hot function); the time is one setup_s
// sample.
func (r *serveRun) setupServer(ctx context.Context) (*serverProc, float64, error) {
	t0 := time.Now()
	s, err := startServer(r.bin)
	if err != nil {
		return nil, 0, err
	}
	ld := newLoad(s.addr, nil)
	defer ld.close()
	out, _ := ld.closedLoop(ctx, r.in.hotRequests(), 0)
	el := time.Since(t0).Seconds()
	r.rep.attempt(int64(len(out)))
	r.hotBodies = r.hotBodies[:0]
	for i := range out {
		if !out[i].ok() {
			r.rep.fail("hot fill %s: status %d: %v", r.in.hot[i].name, out[i].status, out[i].err)
		}
		r.hotBodies = append(r.hotBodies, out[i].body)
	}
	return s, el, nil
}

// account counts a phase's requests and failures, and keeps the sampled
// cold responses for the byte check.
func (r *serveRun) account(phase string, algo driver.Algo, reqs []request, out []outcome) {
	r.rep.attempt(int64(len(out)))
	cold := 0
	for i := range out {
		o := &out[i]
		if !o.ok() {
			r.rep.fail("%s %s: status %d: %v", phase, reqs[i].name, o.status, o.err)
			continue
		}
		if reqs[i].hot {
			continue
		}
		if cold%coldSample == 0 {
			r.samples = append(r.samples, servedSample{f: reqs[i].fn, name: reqs[i].name, algo: algo, body: o.body})
		}
		cold++
	}
}

// close stops everything the run started and waits for it.
func (r *serveRun) close() {
	if r.mon != nil {
		r.mon.close()
	}
	for _, l := range []*load{r.newLoad, r.starLd} {
		if l != nil {
			l.close()
		}
	}
	for _, s := range []*serverProc{r.newSrv, r.starSrv} {
		if s != nil {
			s.stop()
		}
	}
}

// start builds the server, takes the set-up samples (keeping the last
// server) and starts the Briggs* server and the monitor.
func (r *serveRun) start(ctx context.Context) (setup []float64, err error) {
	bin, build, err := buildServer(r.root)
	if err != nil {
		return nil, err
	}
	r.bin = bin
	r.rep.Info["harness.build_s"] = build.Seconds()
	for i := 0; i < setupRuns; i++ {
		s, el, err := r.setupServer(ctx)
		if err != nil {
			return nil, err
		}
		setup = append(setup, el)
		if r.newSrv != nil {
			r.newSrv.stop()
		}
		r.newSrv = s
	}
	r.starSrv, err = startServer(r.bin, "-algo", "briggs*")
	if err != nil {
		return nil, err
	}
	r.newLoad = newLoad(r.newSrv.addr, r.log)
	r.starLd = newLoad(r.starSrv.addr, r.log)
	// Warm-up (untimed): compile cold functions on both servers, so their
	// heaps, shard scratch and connections are in the state of a service
	// that has been running, then touch the hot set again.
	for _, pl := range []struct {
		ld   *load
		algo driver.Algo
	}{{r.newLoad, driver.New}, {r.starLd, driver.BriggsStar}} {
		reqs := r.in.coldRequests(r.cfg.warmN, "w")
		out, _ := pl.ld.closedLoop(ctx, reqs, 0)
		r.account("warm-up", pl.algo, reqs, out)
	}
	reqs := r.in.hotRequests()
	out, _ := r.newLoad.closedLoop(ctx, reqs, 0)
	r.account("warm-up", driver.New, reqs, out)
	r.mon = startMonitor(r.newSrv.addr)
	return setup, nil
}

// verify compares the hot-set responses and the sampled cold responses
// with the in-process driver's output for the same source, byte for
// byte, and checks every served function (the hot set and the cold
// templates) under the interpreter against its original. It returns
// New's static and dynamic copies over those functions.
func (r *serveRun) verify() (static, dyn int64) {
	check := func(name, src string, algo driver.Algo, body []byte) {
		res, _ := driver.Run([]driver.Job{{Name: name, Src: src}}, driver.Config{Algo: algo, Workers: 1})
		r.rep.attempt(1)
		if res[0].Err != nil {
			r.rep.fail("in-process %v %s: %v", algo, name, res[0].Err)
		} else if want := res[0].Func.String() + "\n"; want != string(body) {
			r.rep.fail("%v %s: served output differs from driver.Run", algo, name)
		}
	}
	for i, f := range r.in.hot {
		check(f.name, f.src, driver.New, r.hotBodies[i])
	}
	for _, sm := range r.samples {
		check(sm.name, renamed(sm.f, sm.name), sm.algo, sm.body)
	}
	dyn, static, _ = checkOutputs(r.rep, r.in.all(), []driver.Algo{driver.New}, func(*fn) bool { return false }, 1)
	return static, dyn
}

func newServeRun(cfg serveCfg, root string, traced bool, log *spanLog) *serveRun {
	hot, cold := serveFns(cfg.seed, cfg.hot, cfg.cold)
	return &serveRun{
		cfg: cfg, in: &serveInputs{cfg: cfg, hot: hot, cold: cold}, rep: newReport("serve", traced), root: root, log: log,
	}
}

// runServe reports the serve workload's end-to-end set.
func runServe(ctx context.Context, cfg serveCfg, root string, seconds int) *Report {
	r := newServeRun(cfg, root, false, nil)
	defer r.close()
	setup, err := r.start(ctx)
	if err != nil {
		r.rep.fail("%v", err)
		r.rep.complete()
		return r.rep
	}
	// Nominal windows first; the capacity windows (all misses) follow, so
	// the cache entries they add do not grow the heap the nominal windows
	// measure.
	var p50, p90, heap []float64
	var steps []stepStats
	nw := windows(seconds*4/5, serveWindowS)
	for i := 0; i < nw && ctx.Err() == nil; i++ {
		reqs := r.in.mixRequests(cfg.nominalN, fmt.Sprintf("n%d", i))
		t0 := time.Now()
		out := r.newLoad.openLoop(ctx, reqs, nominalRate, 0)
		t1 := time.Now()
		r.account("nominal", driver.New, reqs, out)
		st := summarizeStep(nominalRate, out)
		steps = append(steps, st)
		p50 = append(p50, st.P50)
		p90 = append(p90, st.P90)
		peak := 0.0
		for _, v := range r.mon.between(t0, t1) {
			peak = math.Max(peak, v.heap)
		}
		heap = append(heap, peak/(1<<20))
	}
	// The servers take turns, so each capacity window follows one on the
	// other server: back to back, a server's window would pay for the
	// garbage collection its previous window left.
	tput := map[string][]float64{}
	for i := 0; i < nw && ctx.Err() == nil; i++ {
		for k := 0; k < 2; k++ {
			ld, algo, key := r.newLoad, driver.New, newTput
			if k == 1 {
				ld, algo, key = r.starLd, driver.BriggsStar, starTput
			}
			reqs := r.in.coldRequests(cfg.capacityN, fmt.Sprintf("c%d", i))
			out, wall := ld.closedLoop(ctx, reqs, 0)
			r.account("capacity", algo, reqs, out)
			tput[key] = append(tput[key], float64(len(out))/wall.Seconds())
		}
	}
	ladder := []stepStats{medianStep(steps)}
	for i, rate := range cfg.ladder {
		if !ladder[len(ladder)-1].Passed || ctx.Err() != nil {
			break
		}
		n := int(rate * cfg.ladderS)
		reqs := r.in.mixRequests(n, fmt.Sprintf("l%d", i))
		out := r.newLoad.openLoop(ctx, reqs, rate, 0)
		r.account("ladder", driver.New, reqs, out)
		ladder = append(ladder, summarizeStep(rate, out))
	}
	rps, bounded := maxRPS(ladder)
	r.rep.Info["nominal"] = ladder[0]
	r.rep.Info["ladder"] = ladder
	r.rep.Info["max_rps"] = rps
	r.rep.Info["max_rps_bounded"] = bounded
	static, _ := r.verify()
	r.rep.set("setup_s", setup...)
	r.rep.set(newTput, tput[newTput]...)
	r.rep.set(starTput, tput[starTput]...)
	r.rep.set("p50_ms", p50...)
	r.rep.set("p90_ms", p90...)
	r.rep.set("peak_heap_mib", heap...)
	r.rep.set("static_copies", float64(static))
	r.rep.complete()
	return r.rep
}

// medianStep folds the nominal windows into one ladder step: the median
// of each percentile, the worst lateness, and pass only if every window
// passed.
func medianStep(steps []stepStats) stepStats {
	pick := func(f func(stepStats) float64) float64 {
		v := make([]float64, len(steps))
		for i, s := range steps {
			v[i] = f(s)
		}
		return median(v)
	}
	out := stepStats{Rate: steps[0].Rate, Passed: true}
	for _, s := range steps {
		out.Requests += s.Requests
		out.Failed += s.Failed
		out.LateMaxMs = math.Max(out.LateMaxMs, s.LateMaxMs)
		out.Backlog = out.Backlog || s.Backlog
		out.Passed = out.Passed && s.Passed
	}
	out.P50 = pick(func(s stepStats) float64 { return s.P50 })
	out.P90 = pick(func(s stepStats) float64 { return s.P90 })
	out.P99 = pick(func(s stepStats) float64 { return s.P99 })
	out.WarmP50 = pick(func(s stepStats) float64 { return s.WarmP50 })
	out.WarmP90 = pick(func(s stepStats) float64 { return s.WarmP90 })
	out.WarmP99 = pick(func(s stepStats) float64 { return s.WarmP99 })
	out.ColdP50 = pick(func(s stepStats) float64 { return s.ColdP50 })
	out.ColdP90 = pick(func(s stepStats) float64 { return s.ColdP90 })
	out.ColdP99 = pick(func(s stepStats) float64 { return s.ColdP99 })
	return out
}

// runServeTraced reports the serve workload's per-layer set: one nominal
// window and one capacity window per pipeline with request spans, the
// server-side phase histograms and counters, and the probe.
func runServeTraced(ctx context.Context, cfg serveCfg, root string, log *spanLog) *Report {
	r := newServeRun(cfg, root, true, log)
	defer r.close()
	if _, err := r.start(ctx); err != nil {
		r.rep.fail("%v", err)
		r.rep.complete()
		return r.rep
	}
	rep := r.rep

	// Nominal window: cache and shard layers.
	before, err := scrape(r.newSrv.addr)
	if err != nil {
		rep.fail("scrape: %v", err)
	}
	reqs := r.in.mixRequests(cfg.nominalN, "tn")
	t0 := time.Now()
	winID := log.id()
	out := r.newLoad.openLoop(ctx, reqs, nominalRate, winID)
	t1 := time.Now()
	log.add(span{Trace: winID, ID: winID, Layer: "benchmark", Name: "window serve/nominal",
		Start: int64(t0.Sub(log.epoch)), Dur: int64(t1.Sub(t0))})
	r.account("nominal", driver.New, reqs, out)
	after, err := scrape(r.newSrv.addr)
	if err != nil {
		rep.fail("scrape: %v", err)
	}
	hits := delta(before, after, "fastcoalesce_cache_hits_total")
	misses := delta(before, after, "fastcoalesce_cache_misses_total")
	rep.set("cache.hit_ratio", hits/math.Max(1, hits+misses))
	rep.set("cache.evictions", delta(before, after, "fastcoalesce_cache_evictions_total"))
	rep.set("driver.shard.rejected", delta(before, after, "fastcoalesce_serve_rejected_total"))
	var qsum, qmax float64
	samples := r.mon.between(t0, t1)
	for _, v := range samples {
		qsum += v.queue
		qmax = math.Max(qmax, v.queue)
	}
	rep.set("driver.shard.queue_depth_mean", qsum/math.Max(1, float64(len(samples))))
	rep.set("driver.shard.queue_depth_max", qmax)
	rep.Info["nominal_traced"] = summarizeStep(nominalRate, out)

	// Capacity windows: the server-side pipeline layers.
	traced := map[string]float64{}
	untraced := map[string]float64{}
	for _, pl := range []struct {
		srv  *serverProc
		ld   *load
		algo driver.Algo
	}{{r.newSrv, r.newLoad, driver.New}, {r.starSrv, r.starLd, driver.BriggsStar}} {
		p := prefix(pl.algo)
		label := `{algo="` + pl.algo.String() + `"`
		plain := r.in.coldRequests(cfg.capacityN, "tp")
		pl.ld.log = nil
		plainOut, plainWall := pl.ld.closedLoop(ctx, plain, 0)
		pl.ld.log = log
		r.account("capacity", pl.algo, plain, plainOut)

		reqs := r.in.coldRequests(cfg.capacityN, "tc")
		before, err := scrape(pl.srv.addr)
		if err != nil {
			rep.fail("scrape: %v", err)
		}
		vars := newClient()
		v0, _ := readVars(vars, pl.srv.addr)
		cpu0 := pl.srv.cpu()
		t0 := time.Now()
		winID := log.id()
		out, wall := pl.ld.closedLoop(ctx, reqs, winID)
		log.add(span{Trace: winID, ID: winID, Layer: "benchmark", Name: "window serve/capacity " + p,
			Start: int64(t0.Sub(log.epoch)), Dur: int64(wall)})
		cpu := pl.srv.cpu() - cpu0
		v1, _ := readVars(vars, pl.srv.addr)
		vars.CloseIdleConnections()
		after, err := scrape(pl.srv.addr)
		if err != nil {
			rep.fail("scrape: %v", err)
		}
		r.account("capacity", pl.algo, reqs, out)
		jobs := delta(before, after, `fastcoalesce_phase_duration_ns_count{phase="job"}`)
		if jobs < 1 {
			rep.fail("%v server compiled nothing in the capacity window", pl.algo)
			jobs = 1
		}
		phase := func(names ...string) float64 {
			var t float64
			for _, n := range names {
				t += delta(before, after, `fastcoalesce_phase_duration_ns_sum{phase="`+n+`"}`)
			}
			return t
		}
		// Phases inside a server job do not nest, so the job's self time
		// is its span minus every other phase's.
		var inner float64
		self := map[string]float64{}
		for key := range after {
			if name, ok := strings.CutPrefix(key, `fastcoalesce_phase_duration_ns_sum{phase="`); ok {
				name = strings.TrimSuffix(name, `"}`)
				if name != "job" {
					inner += phase(name)
				}
				self[name] = phase(name) / jobs
			}
		}
		self["job"] = (phase("job") - inner) / jobs
		rep.Info[p+"phase_self_ns"] = self
		rep.set(p+"lang.parse.ns", self["parse"])
		rep.set(p+"dom.ns", phase("dom", "dom-snca")/jobs)
		rep.set(p+"liveness.ns", phase("liveness", "liveness-sparse")/jobs)
		rep.set(p+"ssa.build.ns", self["ssa-build"])
		rep.set(p+"ir.verify.ns", self["verify"])
		rep.set(p+"dom.calls", deltaPrefix(before, after, "fastcoalesce_dom_recomputes_total"+label)/jobs)
		rep.set(p+"liveness.visits", deltaPrefix(before, after, "fastcoalesce_liveness_visits_total"+label)/jobs)
		rep.set(p+"runtime.alloc_bytes", (v1.totalAlloc-v0.totalAlloc)/jobs)
		rep.set(p+"runtime.gc_cycles", (v1.numGC-v0.numGC)*1000/jobs)
		ins := deltaPrefix(before, after, "fastcoalesce_copies_inserted_total"+label)
		coal := deltaPrefix(before, after, "fastcoalesce_copies_coalesced_total"+label)
		if pl.algo == driver.New {
			rep.set("new.core.union.ns", self["coalesce-union"])
			rep.set("new.core.forest.ns", self["coalesce-forest"])
			rep.set("new.core.local.ns", self["coalesce-local"])
			rep.set("new.core.rewrite.ns", self["rewrite"])
			rep.set("new.driver.job.ns", self["job"])
			rep.set("new.core.copies_inserted", ins/jobs)
			rep.set("new.core.coalesced_ratio", coal/math.Max(1, coal+ins))
			rep.set("driver.busy_ratio", cpu.Seconds()/(wall.Seconds()*float64(runtime.NumCPU())))
			rep.set("obs.trace_overhead", wall.Seconds()/plainWall.Seconds()-1)
		} else {
			rep.set("briggs-star.ifgraph.ns", self["job"])
			rep.set("briggs-star.ifgraph.coalesced", coal/jobs)
		}
		traced[p+"funcs_per_s"] = float64(len(out)) / wall.Seconds()
		untraced[p+"funcs_per_s"] = float64(len(plainOut)) / plainWall.Seconds()
	}
	rep.Info["end_to_end_untraced"] = untraced
	rep.Info["end_to_end_traced"] = traced
	// The streaming scheduler is bypassed by the shard pool.
	for _, name := range []string{"driver.stream.pulls", "driver.stream.steals", "driver.stream.stolen_jobs"} {
		rep.set(name, 0)
	}
	_, dyn := r.verify()
	rep.set("new.core.dynamic_copies", float64(dyn))
	rep.set("new.regalloc.spill_ops", float64(allocSpills(rep, r.in.all())))
	runProbe(rep, r.in.all(), log)
	rep.complete()
	return rep
}
