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

// Snapshot aggregates one batch run. Phase times are per-function spans
// summed across workers — on an oversubscribed host a span includes time
// the goroutine spent descheduled, so the sum can exceed wall time.
// AllocBytes is the process-wide allocation delta over the batch, which
// under concurrency is the only attribution the runtime offers.
type Snapshot struct {
	Algo      Algo
	Workers   int
	Functions int // jobs that compiled successfully
	Errors    int

	Wall        time.Duration
	FuncsPerSec float64

	Parse    time.Duration
	Build    time.Duration
	Destruct time.Duration
	Regalloc time.Duration
	Check    time.Duration

	RegallocK      int   // Config.RegallocK (0 = allocator off)
	Spills         int64 // spilled live ranges across the batch
	Reloads        int64
	RegallocRounds int64
	ColorsUsed     int64 // max distinct registers used by any function
	MaxPressure    int64 // max register pressure seen by any function

	Checked       int64 // jobs that ran the audit
	CheckFindings int64 // diagnostics across those jobs

	CacheHits   int64 // jobs served from the content-addressed cache
	Revalidated int64 // cache hits recompiled and byte-compared (audited jobs, Config.Check)

	AllocBytes int64

	PhisInserted    int64
	CopiesFolded    int64
	CopiesInserted  int64
	CopiesCoalesced int64
	StaticCopies    int64
	LivenessVisits  int64
	DomRecomputes   int64
}

// summarize folds per-job results into a Snapshot.
func summarize(results []Result, algo Algo, workers int, wall time.Duration, alloc int64, regallocK int) *Snapshot {
	s := &Snapshot{Algo: algo, Workers: workers, Wall: wall, AllocBytes: alloc, RegallocK: regallocK}
	for i := range results {
		r := &results[i]
		// Audit accounting happens before the error skip: a job whose
		// checker ran still contributes its findings even if a later
		// stage errored.
		if r.Report != nil {
			s.Checked++
			s.Check += r.Metrics.Check
			s.CheckFindings += int64(r.Metrics.CheckFindings)
		}
		if r.Err != nil {
			s.Errors++
			continue
		}
		s.Functions++
		if r.Cached {
			s.CacheHits++
		}
		if r.Revalidated {
			s.Revalidated++
		}
		m := &r.Metrics
		s.Parse += m.Parse
		s.Build += m.Build
		s.Destruct += m.Destruct
		s.PhisInserted += int64(m.PhisInserted)
		s.CopiesFolded += int64(m.CopiesFolded)
		s.CopiesInserted += int64(m.CopiesInserted)
		s.CopiesCoalesced += int64(m.CopiesCoalesced)
		s.StaticCopies += int64(m.StaticCopies)
		s.LivenessVisits += int64(m.LivenessVisits)
		s.DomRecomputes += int64(m.DomRecomputes)
		s.Regalloc += m.Regalloc
		s.Spills += int64(m.Spills)
		s.Reloads += int64(m.Reloads)
		s.RegallocRounds += int64(m.RegallocRounds)
		if int64(m.ColorsUsed) > s.ColorsUsed {
			s.ColorsUsed = int64(m.ColorsUsed)
		}
		if int64(m.MaxPressure) > s.MaxPressure {
			s.MaxPressure = int64(m.MaxPressure)
		}
	}
	if wall > 0 {
		s.FuncsPerSec = float64(s.Functions) / wall.Seconds()
	}
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
	fmt.Fprintf(&b, "  cpu phases:    parse %-10v ssa-build %-10v destruct %v\n",
		s.Parse.Round(time.Microsecond), s.Build.Round(time.Microsecond),
		s.Destruct.Round(time.Microsecond))
	fmt.Fprintf(&b, "  copies:        phis %-6d folded %-6d coalesced %-6d inserted %-6d static %d\n",
		s.PhisInserted, s.CopiesFolded, s.CopiesCoalesced, s.CopiesInserted, s.StaticCopies)
	if s.RegallocK > 0 {
		fmt.Fprintf(&b, "  regalloc:      k %-4d spills %-6d reloads %-6d rounds %-5d colors<=%-3d pressure %-4d time %v\n",
			s.RegallocK, s.Spills, s.Reloads, s.RegallocRounds, s.ColorsUsed, s.MaxPressure,
			s.Regalloc.Round(time.Microsecond))
	}
	if s.Checked > 0 {
		fmt.Fprintf(&b, "  checks:        audited %-6d findings %-6d time %v\n",
			s.Checked, s.CheckFindings, s.Check.Round(time.Microsecond))
	}
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
