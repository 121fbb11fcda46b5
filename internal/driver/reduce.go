package driver

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"
)

// StreamStats is the standard Reducer: it folds every streamed Result
// into global and per-family aggregates — shape counts, spill totals at
// the run's k, and log₂-bucketed phase-time histograms — in O(families)
// memory. All counts are sums, maxima, or bucket increments, so the
// folded state is independent of worker count and claim order;
// CountsText exposes exactly that order-invariant subset and is pinned
// byte-identical across worker counts by the determinism tests.
type StreamStats struct {
	mu     sync.Mutex
	global FamilyAgg
	fams   map[string]*FamilyAgg

	// Destruct/Total are histograms of per-job phase durations; timing
	// is schedule-dependent, so they appear in Table but never in
	// CountsText.
	Destruct PhaseHist
	Total    PhaseHist
}

// FamilyAgg is one family's fold (or, for the global row, everything).
type FamilyAgg struct {
	Family string
	Totals
}

// PhaseHist is a log₂ histogram of durations: bucket i counts samples
// in [2^i, 2^(i+1)) nanoseconds, with the last bucket open-ended.
type PhaseHist struct {
	Buckets [40]int64 // 2^39 ns ≈ 9 minutes; everything slower lands in the top bucket
}

func (h *PhaseHist) observe(d time.Duration) {
	n := uint64(d)
	if d < 0 {
		n = 0
	}
	b := bits.Len64(n) // 0 for 0ns, else floor(log2)+1
	if b >= len(h.Buckets) {
		b = len(h.Buckets) - 1
	}
	h.Buckets[b]++
}

// String renders the non-empty buckets as "≤1µs:1234 ≤2µs:88 …".
func (h *PhaseHist) String() string {
	var b strings.Builder
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "<%v:%d", time.Duration(1)<<i, n)
	}
	if b.Len() == 0 {
		return "(empty)"
	}
	return b.String()
}

// NewStreamStats returns an empty reducer.
func NewStreamStats() *StreamStats {
	return &StreamStats{fams: make(map[string]*FamilyAgg)}
}

// Reduce implements Reducer.
func (s *StreamStats) Reduce(r *Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.global.Add(r)
	if r.Family != "" {
		s.family(r.Family).Add(r)
	}
	s.Destruct.observe(r.Metrics.Destruct)
	s.Total.observe(r.Metrics.Parse + r.Metrics.Build + r.Metrics.Destruct + r.Metrics.Regalloc + r.Metrics.Check)
}

// family returns the named aggregate, creating it on first use. Callers
// hold s.mu.
func (s *StreamStats) family(name string) *FamilyAgg {
	fa := s.fams[name]
	if fa == nil {
		fa = &FamilyAgg{Family: name}
		s.fams[name] = fa
	}
	return fa
}

// Global returns a copy of the run-wide aggregate.
func (s *StreamStats) Global() FamilyAgg {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.global
}

// Families returns copies of the per-family aggregates, sorted by name.
func (s *StreamStats) Families() []FamilyAgg {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]FamilyAgg, 0, len(s.fams))
	for _, fa := range s.fams {
		out = append(out, *fa)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Family < out[j].Family })
	return out
}

// CountsText renders every schedule-independent aggregate as one line
// per scope (global first, then families sorted by name). Two streamed
// runs over the same source produce byte-identical CountsText no matter
// the worker count or the order jobs finish in — the determinism tests
// pin this.
func (s *StreamStats) CountsText() string {
	var b strings.Builder
	countsLine(&b, "*", s.Global())
	for _, fa := range s.Families() {
		countsLine(&b, fa.Family, fa)
	}
	return b.String()
}

func countsLine(b *strings.Builder, scope string, a FamilyAgg) {
	fmt.Fprintf(b, "%s jobs=%d errors=%d phis=%d folded=%d inserted=%d coalesced=%d static=%d visits=%d domruns=%d checked=%d findings=%d spills=%d reloads=%d colors<=%d pressure=%d\n",
		scope, a.Jobs, a.Errors, a.PhisInserted, a.CopiesFolded,
		a.CopiesInserted, a.CopiesCoalesced, a.StaticCopies, a.LivenessVisits,
		a.DomRecomputes, a.Checked, a.CheckFindings, a.Spills, a.Reloads,
		a.ColorsUsed, a.MaxPressure)
}

// Table renders the reduction plus the engine report as the text block
// cmd/coalesce -stream prints: a global summary, a per-family table,
// and the phase histograms.
func (s *StreamStats) Table(rep *StreamReport, algo Algo, regallocK int) string {
	g := s.Global()
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline %-9s workers %-3d streamed %d", algo, rep.Workers, g.Jobs)
	if g.Errors > 0 {
		fmt.Fprintf(&b, " (%d errors)", g.Errors)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  wall %-12v throughput %8.1f funcs/sec   peak-heap %s\n",
		rep.Wall.Round(time.Microsecond), g.perSec(rep.Wall), fmtBytes(rep.PeakHeap))
	g.writeLines(&b, regallocK)
	fams := s.Families()
	if len(fams) > 0 {
		fmt.Fprintf(&b, "  %-22s %10s %10s %12s %10s %10s\n",
			"family", "jobs", "phis", "coalesced", "static", "spills")
		for _, fa := range fams {
			fmt.Fprintf(&b, "  %-22s %10d %10d %12d %10d %10d\n",
				fa.Family, fa.Jobs, fa.PhisInserted, fa.CopiesCoalesced, fa.StaticCopies, fa.Spills)
		}
	}
	fmt.Fprintf(&b, "  destruct hist: %s\n", s.Destruct.String())
	fmt.Fprintf(&b, "  total hist:    %s\n", s.Total.String())
	return b.String()
}
