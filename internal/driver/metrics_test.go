package driver_test

import (
	"context"
	"errors"
	"testing"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/driver"
)

// TestTotalsAdd pins the fold rules both engines share: what a skipped,
// a failed, a cached and a revalidated job each count.
func TestTotalsAdd(t *testing.T) {
	m := driver.FuncMetrics{
		Parse: 1, Build: 2, Destruct: 3, Regalloc: 4, Check: 5,
		PhisInserted: 1, CopiesFolded: 2, CopiesInserted: 3, CopiesCoalesced: 4,
		StaticCopies: 5, CheckFindings: 2, LivenessVisits: 6, DomRecomputes: 7,
		Spills: 8, Reloads: 9, RegallocRounds: 2, ColorsUsed: 3, MaxPressure: 4,
	}
	// sums is one compiled job's contribution, apart from the audit.
	sums := driver.Totals{
		Jobs: 1, Parse: 1, Build: 2, Destruct: 3, Regalloc: 4,
		PhisInserted: 1, CopiesFolded: 2, CopiesInserted: 3, CopiesCoalesced: 4,
		StaticCopies: 5, LivenessVisits: 6, DomRecomputes: 7,
		Spills: 8, Reloads: 9, RegallocRounds: 2, ColorsUsed: 3, MaxPressure: 4,
	}
	hit := sums
	hit.CacheHits = 1
	reval := hit
	reval.Revalidated, reval.Checked, reval.CheckFindings, reval.Check = 1, 1, 2, 5
	// Two jobs: sums add up, colours and pressure take the larger.
	wide := m
	wide.ColorsUsed, wide.MaxPressure = 7, 2
	maxima := driver.Totals{
		Jobs: 2, Parse: 2, Build: 4, Destruct: 6, Regalloc: 8,
		PhisInserted: 2, CopiesFolded: 4, CopiesInserted: 6, CopiesCoalesced: 8,
		StaticCopies: 10, LivenessVisits: 12, DomRecomputes: 14,
		Spills: 16, Reloads: 18, RegallocRounds: 4, ColorsUsed: 7, MaxPressure: 4,
	}

	report := &analysis.Report{}
	for _, tc := range []struct {
		name string
		rs   []driver.Result
		want driver.Totals
	}{
		{"skipped", []driver.Result{{Skipped: true, Err: context.Canceled, Metrics: m}},
			driver.Totals{Skipped: 1}},
		{"failed audited", []driver.Result{{Err: errors.New("verify"), Report: report, Metrics: m}},
			driver.Totals{Jobs: 1, Errors: 1, Checked: 1, CheckFindings: 2, Check: 5}},
		{"cache hit", []driver.Result{{Cached: true, Metrics: m}}, hit},
		{"revalidated hit", []driver.Result{{Cached: true, Revalidated: true, Report: report, Metrics: m}}, reval},
		{"maxima", []driver.Result{{Metrics: m}, {Metrics: wide}}, maxima},
	} {
		var got driver.Totals
		for i := range tc.rs {
			got.Add(&tc.rs[i])
		}
		if got != tc.want {
			t.Errorf("%s:\n got: %+v\nwant: %+v", tc.name, got, tc.want)
		}
	}
}
