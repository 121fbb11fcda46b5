package main

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// FuzzCompileHandler posts arbitrary (body, format) pairs through the
// front end: the answer is 200 or 400, never a 5xx or a panic, and a
// body answered 200 is answered again with the same bytes and
// X-Cache: hit.
func FuzzCompileHandler(f *testing.F) {
	for _, body := range corpus(f) {
		f.Add(body, "")
	}
	f.Add("func oops(", "")
	f.Add("not ir at all", "ir")
	f.Add("func f()\nb2147483648:\n\tret 0\n}", "")
	f.Add("x", "wasm")
	handler, _, _ := newTestFrontEnd(f)
	f.Fuzz(func(t *testing.T, body, format string) {
		post := func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/compile?format="+url.QueryEscape(format), strings.NewReader(body))
			rr := httptest.NewRecorder()
			handler.ServeHTTP(rr, req)
			return rr
		}
		first := post()
		switch first.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			return
		default:
			t.Fatalf("status %d: %s", first.Code, first.Body.String())
		}
		again := post()
		if again.Code != http.StatusOK || again.Header().Get("X-Cache") != "hit" || again.Body.String() != first.Body.String() {
			t.Fatalf("repeat: status %d, X-Cache %q, same bytes %v",
				again.Code, again.Header().Get("X-Cache"), again.Body.String() == first.Body.String())
		}
	})
}
