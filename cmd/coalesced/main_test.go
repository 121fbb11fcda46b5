package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fastcoalesce/internal/cache"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/obs"
)

// newTestFrontEnd assembles the serving stack the way realMain does,
// sized small, and hands back the handler plus its cache.
func newTestFrontEnd(t testing.TB) (http.Handler, *driver.ShardPool, *cache.Cache) {
	t.Helper()
	rec := obs.NewRecorder(obs.Options{})
	c := cache.New(cache.Config{MaxBytes: 8 << 20, Reg: rec.Registry()})
	pool := driver.NewShardPool(driver.ShardConfig{
		Config: driver.Config{Algo: driver.New, Cache: c, Obs: rec},
		Shards: 2,
		Queue:  16,
	})
	t.Cleanup(pool.Close)
	return newFrontEnd(pool, rec), pool, c
}

// corpus returns every .kl/.ir body under testdata in path order.
func corpus(t testing.TB) map[string]string {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string]string{}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".kl") || strings.HasSuffix(e.Name(), ".ir") {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			bodies[e.Name()] = string(b)
		}
	}
	if len(bodies) == 0 {
		t.Fatal("no corpus files under testdata")
	}
	return bodies
}

// TestCompileTwicePassesThroughCache is the end-to-end cache contract:
// the first POST of every corpus file misses and compiles, the second
// is answered from the cache byte-identically, and the metrics endpoint
// shows a 100% second-pass hit rate.
func TestCompileTwicePassesThroughCache(t *testing.T) {
	handler, _, c := newTestFrontEnd(t)
	bodies := corpus(t)
	var names []string
	for name := range bodies {
		names = append(names, name)
	}
	sort.Strings(names)

	post := func(name string) (*httptest.ResponseRecorder, string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/compile?name="+name, strings.NewReader(bodies[name]))
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", name, rr.Code, rr.Body.String())
		}
		return rr, rr.Body.String()
	}

	first := map[string]string{}
	for _, name := range names {
		rr, body := post(name)
		if got := rr.Header().Get("X-Cache"); got != "miss" {
			t.Errorf("first POST %s: X-Cache = %q, want miss", name, got)
		}
		if !strings.Contains(body, "func ") {
			t.Errorf("first POST %s: response does not look like IR:\n%s", name, body)
		}
		first[name] = body
	}
	for _, name := range names {
		rr, body := post(name)
		if got := rr.Header().Get("X-Cache"); got != "hit" {
			t.Errorf("second POST %s: X-Cache = %q, want hit", name, got)
		}
		if body != first[name] {
			t.Errorf("second POST %s: cached response differs from fresh compile", name)
		}
	}

	if st := c.Stats(); st.Hits < int64(len(names)) {
		t.Errorf("cache hits = %d, want >= %d", st.Hits, len(names))
	}

	// The JSON metrics endpoint a smoke test scrapes must agree.
	req := httptest.NewRequest(http.MethodGet, "/debug/vars", nil)
	rr := httptest.NewRecorder()
	handler.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("/debug/vars: status %d", rr.Code)
	}
	var vars struct {
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, rr.Body.String())
	}
	var hits int64
	if err := json.Unmarshal(vars.Metrics["fastcoalesce_cache_hits_total"], &hits); err != nil {
		t.Fatalf("no fastcoalesce_cache_hits_total in /debug/vars: %v", err)
	}
	if hits < int64(len(names)) {
		t.Errorf("scraped cache hits = %d, want >= %d", hits, len(names))
	}
}

func TestCompileRejectsBadInput(t *testing.T) {
	handler, _, _ := newTestFrontEnd(t)
	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"get", http.MethodGet, "/compile", "", http.StatusMethodNotAllowed},
		{"parse error", http.MethodPost, "/compile", "func oops(", http.StatusBadRequest},
		{"bad format", http.MethodPost, "/compile?format=wasm", "x", http.StatusBadRequest},
		{"bad ir", http.MethodPost, "/compile?format=ir", "not ir at all", http.StatusBadRequest},
		// 2 MB bodies nested far past the parser's budget. Compiling
		// either overflows the stack, which ends the process.
		{"million parens", http.MethodPost, "/compile",
			"func f(a int) int { return " + strings.Repeat("(", 1_000_000) + "a" + strings.Repeat(")", 1_000_000) + " }",
			http.StatusBadRequest},
		{"million-term sum", http.MethodPost, "/compile",
			"func f(a int) int { return a" + strings.Repeat("+a", 999_999) + " }",
			http.StatusBadRequest},
		// IR whose block numbers once crashed the parser or made it
		// create 10⁹ blocks; the last is sniffed as IR.
		{"ir label past int32", http.MethodPost, "/compile?format=ir", "func f()\nb2147483648:\n\tret 0\n}", http.StatusBadRequest},
		{"ir jmp past int32", http.MethodPost, "/compile?format=ir", "func f()\nb0:\n\tjmp b2147483648\n}", http.StatusBadRequest},
		{"ir label past int64 wrap", http.MethodPost, "/compile?format=ir", "func ()\nb0000010000000000000:", http.StatusBadRequest},
		{"ir label past line count", http.MethodPost, "/compile?format=ir", "func f()\nb1000000000:", http.StatusBadRequest},
		{"sniffed ir label past line count", http.MethodPost, "/compile", "func f()\nb1000000000:", http.StatusBadRequest},
	} {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)
		if rr.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rr.Code, tc.want)
		}
	}
}

func TestHealthAndMonitorEndpoints(t *testing.T) {
	handler, _, _ := newTestFrontEnd(t)
	for _, path := range []string{"/healthz", "/metrics", "/debug/vars", "/"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			t.Errorf("GET %s: status %d", path, rr.Code)
		}
	}
}

// TestFormatSniffing posts an IR body and a kernel-language body with no
// format: each compiles only if it is sniffed as what it is, and forcing
// the other format refuses it.
func TestFormatSniffing(t *testing.T) {
	handler, _, _ := newTestFrontEnd(t)
	irBody := "func f(n) {\nb0:\n\tn = param 0\n\tret n\n}\n"
	klBody := "\nfunc f(n int) int {\n\treturn n\n}"
	for _, tc := range []struct {
		name, query, body string
		want              int
	}{
		{"ir sniffed", "", irBody, http.StatusOK},
		{"kl sniffed", "", klBody, http.StatusOK},
		{"ir forced kl", "?format=kl", irBody, http.StatusBadRequest},
		{"kl forced ir", "?format=ir", klBody, http.StatusBadRequest},
	} {
		req := httptest.NewRequest(http.MethodPost, "/compile"+tc.query, strings.NewReader(tc.body))
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)
		if rr.Code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rr.Code, tc.want, rr.Body.String())
		}
	}
}
