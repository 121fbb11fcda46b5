package bench

import (
	"fmt"
	"runtime"
	"time"

	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/interp"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/ssa"
)

// Algo selects one of the four SSA-to-CFG conversion pipelines the paper
// compares (§4). The type lives in the batch driver; bench re-exports it
// so the experiment code and the driver agree on pipeline identity.
type Algo = driver.Algo

// The pipelines (see driver for the paper nomenclature).
const (
	Standard   = driver.Standard
	New        = driver.New
	Briggs     = driver.Briggs
	BriggsStar = driver.BriggsStar
)

// Algos lists all pipelines in table order.
var Algos = driver.Algos

// PipelineResult is the outcome of compiling one function with one
// pipeline.
type PipelineResult struct {
	Algo     Algo
	Func     *ir.Func // the rewritten, φ-free function
	Duration time.Duration
	// PhaseDuration is the SSA-destruction phase alone (coalescing and
	// copy insertion), excluding SSA construction and liveness shared by
	// all pipelines — the span the paper's O(n α(n)) claim covers.
	PhaseDuration time.Duration
	AllocBytes    int64 // heap allocated between SSA build and final rewrite
	AllocObjects  int64 // heap objects allocated over the same span
	StaticCopies  int
	SSAStats      *ssa.Stats

	// DestructStats holds the destruction step's stats: Core for New,
	// Graph for Briggs and Briggs*, Standard for Standard.
	driver.DestructStats
}

// RunPipeline compiles a clone of f with the chosen pipeline — the
// driver's BuildSSA and Destruct, cold (nil scratch) with pruned SSA.
// Following the paper, the clock starts immediately before SSA
// construction and stops after the code is rewritten (§4.2); allocation
// is measured over the same span. It panics on input the
// pipeline rejects (φ-form under the Briggs pipelines); the experiments
// only feed it φ-free functions.
func RunPipeline(f *ir.Func, algo Algo) *PipelineResult {
	g := f.Clone()
	res := &PipelineResult{Algo: algo}
	cfg := driver.Config{Algo: algo}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()

	st, err := driver.BuildSSA(g, cfg, nil)
	if err != nil {
		panic(err)
	}
	p0 := time.Now()
	ds, err := driver.Destruct(g, st, cfg, nil)
	if err != nil {
		panic(err)
	}
	res.PhaseDuration = time.Since(p0)

	res.Duration = time.Since(start)
	runtime.ReadMemStats(&ms1)
	res.AllocBytes = int64(ms1.TotalAlloc - ms0.TotalAlloc)
	res.AllocObjects = int64(ms1.Mallocs - ms0.Mallocs)
	res.Func = g
	res.StaticCopies = g.CountCopies()
	res.SSAStats = st
	res.DestructStats = ds
	return res
}

// CompileWorkload parses a workload's source.
func CompileWorkload(w Workload) (*ir.Func, error) {
	return lang.CompileOne(w.Src)
}

// ArraySeed is the deterministic seed (derived from the workload name)
// behind Arrays — reported in failure diagnostics so a mismatch can be
// reproduced without rerunning the whole suite.
func (w Workload) ArraySeed() int64 {
	var seed int64 = 1
	for _, ch := range w.Name {
		seed = seed*31 + int64(ch)
	}
	return seed
}

// Arrays materializes deterministic array inputs for a workload: contents
// depend only on the workload name and index.
func (w Workload) Arrays() [][]int64 {
	seed := w.ArraySeed()
	out := make([][]int64, len(w.ArrayLens))
	for ai, n := range w.ArrayLens {
		a := make([]int64, n)
		s := seed + int64(ai)*1013
		for i := range a {
			s = (s*6364136223846793005 + 1442695040888963407) % (1 << 31)
			if s < 0 {
				s = -s
			}
			a[i] = s%200 - 100
		}
		out[ai] = a
	}
	return out
}

// DynamicCopies executes the rewritten function on the workload's inputs
// and returns the number of copy instructions executed.
func DynamicCopies(f *ir.Func, w Workload) (int64, error) {
	res, err := interp.Run(f, w.Args, w.Arrays(), 500_000_000)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", w.Name, err)
	}
	return res.Counts.Copies, nil
}

// CheckAgainstOriginal runs both the original and rewritten functions on
// the workload inputs and verifies identical results — the correctness
// oracle every experiment rests on. On mismatch the error pinpoints the
// first diverging observation (return value or memory cell) and carries
// the workload's input seed so the failure replays in isolation.
func CheckAgainstOriginal(orig, rewritten *ir.Func, w Workload) error {
	want, err := interp.Run(orig, w.Args, w.Arrays(), 500_000_000)
	if err != nil {
		return fmt.Errorf("%s original: %w", w.Name, err)
	}
	got, err := interp.Run(rewritten, w.Args, w.Arrays(), 500_000_000)
	if err != nil {
		return fmt.Errorf("%s rewritten: %w", w.Name, err)
	}
	if !interp.SameResult(want, got) {
		return fmt.Errorf("%s: rewritten code diverges (%s; args %v, array seed %d)",
			w.Name, interp.ExplainMismatch(want, got), w.Args, w.ArraySeed())
	}
	return nil
}
