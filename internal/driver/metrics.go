package driver

import (
	"fmt"
	"strings"
	"time"
)

// FuncMetrics are the per-function measurements taken by a worker.
type FuncMetrics struct {
	Parse    time.Duration // source → IR
	Build    time.Duration // SSA construction (incl. liveness, dominators)
	Destruct time.Duration // SSA destruction (the paper's measured span)
	Regalloc time.Duration // register allocation (zero when Config.RegallocK is 0)
	Check    time.Duration // analysis audit (zero when Config.Check is None)

	PhisInserted    int
	CopiesFolded    int
	CopiesInserted  int // copies materialized by destruction
	CopiesCoalesced int // copies eliminated (unions / graph coalesces)
	StaticCopies    int // copy instructions in the final code
	CheckFindings   int // diagnostics reported by the audit
	LivenessVisits  int // liveness solver work (liveness.Stats.Visits of every solve)
	DomRecomputes   int // dominator computations across the pipeline

	Spills         int // live ranges sent to the spill array
	Reloads        int // reload instructions inserted
	RegallocRounds int // build/color attempts until the graph colored
	ColorsUsed     int // distinct registers the final coloring uses
	MaxPressure    int // max simultaneously-live variables before spilling
}

// Totals folds job Results into counts, sums and maxima. It is the one
// fold behind both the batch Snapshot and the streamed StreamStats, so
// the two engines cannot count a job differently. Add applies three
// rules: a skipped job counts only as Skipped; audit accounting happens
// before the error skip, so a job whose checker ran contributes its
// findings even if a later stage failed; and a failed job adds nothing
// else. Colours and pressure are maxima, everything else a sum, so the
// fold is independent of the order Results arrive in.
type Totals struct {
	Jobs    int64 // jobs compiled, including failures
	Errors  int64
	Skipped int64 // streamed jobs drained before a worker started them

	Checked       int64 // jobs that ran the audit
	CheckFindings int64 // diagnostics across those jobs

	CacheHits   int64 // jobs served from the content-addressed cache
	Revalidated int64 // cache hits recompiled and byte-compared (audited jobs, Config.Check)

	PhisInserted    int64
	CopiesFolded    int64
	CopiesInserted  int64
	CopiesCoalesced int64
	StaticCopies    int64
	LivenessVisits  int64
	DomRecomputes   int64

	Spills         int64 // spilled live ranges
	Reloads        int64
	RegallocRounds int64
	ColorsUsed     int64 // max distinct registers used by any function
	MaxPressure    int64 // max register pressure seen by any function

	// Per-function phase spans, summed. On an oversubscribed host a span
	// includes time the goroutine spent descheduled, so the sum can
	// exceed wall time.
	Parse    time.Duration
	Build    time.Duration
	Destruct time.Duration
	Regalloc time.Duration
	Check    time.Duration
}

// Add folds one Result into t.
func (t *Totals) Add(r *Result) {
	if r.Skipped {
		t.Skipped++
		return
	}
	t.Jobs++
	m := &r.Metrics
	if r.Report != nil {
		t.Checked++
		t.Check += m.Check
		t.CheckFindings += int64(m.CheckFindings)
	}
	if r.Err != nil {
		t.Errors++
		return
	}
	if r.Cached {
		t.CacheHits++
	}
	if r.Revalidated {
		t.Revalidated++
	}
	t.Parse += m.Parse
	t.Build += m.Build
	t.Destruct += m.Destruct
	t.Regalloc += m.Regalloc
	t.PhisInserted += int64(m.PhisInserted)
	t.CopiesFolded += int64(m.CopiesFolded)
	t.CopiesInserted += int64(m.CopiesInserted)
	t.CopiesCoalesced += int64(m.CopiesCoalesced)
	t.StaticCopies += int64(m.StaticCopies)
	t.LivenessVisits += int64(m.LivenessVisits)
	t.DomRecomputes += int64(m.DomRecomputes)
	t.Spills += int64(m.Spills)
	t.Reloads += int64(m.Reloads)
	t.RegallocRounds += int64(m.RegallocRounds)
	t.ColorsUsed = max(t.ColorsUsed, int64(m.ColorsUsed))
	t.MaxPressure = max(t.MaxPressure, int64(m.MaxPressure))
}

// perSec is the throughput both tables print: compiled jobs, failures
// included, per second of wall time.
func (t *Totals) perSec(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(t.Jobs) / wall.Seconds()
}

// writeLines prints the copies, regalloc and checks lines that the batch
// and streamed tables share; the regalloc line only when the allocator
// ran (regallocK > 0), the checks line only when a job was audited.
func (t *Totals) writeLines(b *strings.Builder, regallocK int) {
	fmt.Fprintf(b, "  copies:        phis %-8d folded %-8d coalesced %-8d inserted %-8d static %d\n",
		t.PhisInserted, t.CopiesFolded, t.CopiesCoalesced, t.CopiesInserted, t.StaticCopies)
	if regallocK > 0 {
		fmt.Fprintf(b, "  regalloc:      k %-4d spills %-8d reloads %-8d colors<=%-3d pressure %d\n",
			regallocK, t.Spills, t.Reloads, t.ColorsUsed, t.MaxPressure)
	}
	if t.Checked > 0 {
		fmt.Fprintf(b, "  checks:        audited %-8d findings %d\n", t.Checked, t.CheckFindings)
	}
}

// Snapshot aggregates one batch run. AllocBytes is the process-wide
// allocation delta over the batch, which under concurrency is the only
// attribution the runtime offers.
type Snapshot struct {
	Algo      Algo
	Workers   int
	Functions int // jobs that compiled successfully
	Totals

	Wall        time.Duration
	FuncsPerSec float64

	RegallocK  int // Config.RegallocK (0 = allocator off)
	AllocBytes int64
}

// summarize folds per-job results into a Snapshot.
func summarize(results []Result, algo Algo, workers int, wall time.Duration, alloc int64, regallocK int) *Snapshot {
	s := &Snapshot{Algo: algo, Workers: workers, Wall: wall, AllocBytes: alloc, RegallocK: regallocK}
	for i := range results {
		s.Add(&results[i])
	}
	s.Functions = int(s.Jobs - s.Errors)
	s.FuncsPerSec = s.perSec(wall)
	return s
}

// Table renders the snapshot as the paper-style text block the commands
// print.
func (s *Snapshot) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline %-9s workers %-3d functions %d", s.Algo, s.Workers, s.Functions)
	if s.Errors > 0 {
		fmt.Fprintf(&b, " (%d errors)", s.Errors)
	}
	b.WriteByte('\n')
	perFunc := int64(0)
	if s.Functions > 0 {
		perFunc = s.AllocBytes / int64(s.Functions)
	}
	fmt.Fprintf(&b, "  wall %-12v throughput %8.1f funcs/sec   alloc %s (%s/func)\n",
		s.Wall.Round(time.Microsecond), s.FuncsPerSec,
		fmtBytes(s.AllocBytes), fmtBytes(perFunc))
	fmt.Fprintf(&b, "  cpu phases:    parse %-10v ssa-build %-10v destruct %-10v regalloc %-10v check %v\n",
		s.Parse.Round(time.Microsecond), s.Build.Round(time.Microsecond),
		s.Destruct.Round(time.Microsecond), s.Regalloc.Round(time.Microsecond),
		s.Check.Round(time.Microsecond))
	s.writeLines(&b, s.RegallocK)
	if s.CacheHits > 0 {
		fmt.Fprintf(&b, "  cache:         hits %-6d revalidated %d\n",
			s.CacheHits, s.Revalidated)
	}
	return b.String()
}

// fmtBytes prints a byte count with a binary unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
