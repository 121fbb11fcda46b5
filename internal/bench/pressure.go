package bench

import (
	"fmt"
	"strings"

	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/interp"
	"fastcoalesce/internal/ir"
)

// The register-pressure sweep: allocate every pipeline's coalesced output
// with k = 4/8/16/32 registers and count what spilling costs — the
// paper's second, more decisive efficacy axis (§5): coalescing quality
// only becomes an end-to-end result once live ranges are actually
// colored and spilled. Every allocated program is verified three ways
// (proper coloring against interference computed afresh, independently
// of the allocator's own walk; ir.Verify; and interpreter equivalence
// with the original), so `experiments -pressure` doubles as a CI
// correctness gate: any mismatch aborts the sweep with an error.

// PressureEntry is one (scope, pipeline, k) cell of the sweep, summed
// over the scope's functions. Scope is "suite" for the 29-workload
// kernel suite or a famgen family name (at famPressureSize) for the
// substrate-stress CFGs.
type PressureEntry struct {
	Scope       string `json:"scope"`
	Pipeline    string `json:"pipeline"`
	K           int    `json:"k"`
	Funcs       int    `json:"funcs"`
	Spills      int    `json:"spills"`       // live ranges sent to memory
	Reloads     int    `json:"reloads"`      // reload instructions inserted
	Rounds      int    `json:"rounds"`       // build/color attempts
	SpillOps    int64  `json:"spill_ops"`    // dynamic extra non-copy instructions executed
	ColorsUsed  int    `json:"colors_used"`  // max distinct registers over the scope
	MaxPressure int    `json:"max_pressure"` // max simultaneously-live variables over the scope
}

// PressureKs are the register counts swept, the k = 4/8/16/32 axis the
// ROADMAP names.
var PressureKs = []int{4, 8, 16, 32}

// famPressureSize is the famgen generator parameter used by the sweep:
// large enough that the Standard pipeline's uncoalesced copies create
// real pressure, small enough that Briggs' full matrix stays cheap.
const famPressureSize = 32

// pressurePoint allocates one φ-free pipeline output g (in place) with k
// registers through the driver's backend, driver.Allocate, on the warm
// scratch sc, and folds the outcome into e. want is the original
// program's interpreter result — the end-to-end oracle; arrays builds a
// fresh input set per run (the runs write to them). SpillOps is measured
// against g's own pre-allocation execution, so edge-split jumps and other
// pipeline artifacts cancel out and only spill traffic remains.
func pressurePoint(e *PressureEntry, name string, want *interp.Result, g *ir.Func, k int,
	args []int64, arrays func() [][]int64, sc *driver.Scratch) error {
	base, err := interp.Run(g, args, arrays(), 500_000_000)
	if err != nil {
		return fmt.Errorf("%s/%s %s pre-alloc: %w", e.Scope, name, e.Pipeline, err)
	}
	res, err := driver.Allocate(g, driver.Config{RegallocK: k}, sc)
	if err != nil {
		return fmt.Errorf("%s/%s %s: %w", e.Scope, name, e.Pipeline, err)
	}
	got, err := interp.Run(g, args, arrays(), 500_000_000)
	if err != nil {
		return fmt.Errorf("%s/%s k=%d allocated: %w", e.Scope, name, k, err)
	}
	if !interp.SameResult(want, got) {
		return fmt.Errorf("%s/%s k=%d: allocated code diverges from the original (%s)",
			e.Scope, name, k, interp.ExplainMismatch(want, got))
	}
	e.Funcs++
	e.Spills += res.SpilledVars
	e.Reloads += res.Reloads
	e.Rounds += res.Rounds
	e.SpillOps += (got.Counts.Instrs - got.Counts.Copies) - (base.Counts.Instrs - base.Counts.Copies)
	e.ColorsUsed = max(e.ColorsUsed, res.ColorsUsed)
	e.MaxPressure = max(e.MaxPressure, res.MaxPressure)
	return nil
}

// RunPressureSweep measures every (scope, pipeline, k) cell: the whole
// workload suite plus each famgen family, through all four pipelines,
// at every k in PressureKs. One warm driver.Scratch serves every
// allocation, so the sweep also exercises the allocator's scratch-reuse
// path under constantly changing function shapes.
func RunPressureSweep() ([]PressureEntry, error) {
	ws := Workloads()
	origs := make([]*ir.Func, len(ws))
	wants := make([]*interp.Result, len(ws))
	for i, w := range ws {
		f, err := CompileWorkload(w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		origs[i] = f
		if wants[i], err = interp.Run(f, w.Args, w.Arrays(), 500_000_000); err != nil {
			return nil, fmt.Errorf("%s original: %w", w.Name, err)
		}
	}
	fams := Families()
	famFuncs := make([]*ir.Func, len(fams))
	famWants := make([]*interp.Result, len(fams))
	for i, fam := range fams {
		f := fam.Build(famPressureSize)
		if err := f.Verify(); err != nil {
			return nil, fmt.Errorf("%s: generated CFG invalid: %w", fam.Name, err)
		}
		famFuncs[i] = f
		var err error
		if famWants[i], err = interp.Run(f, nil, nil, 500_000_000); err != nil {
			return nil, fmt.Errorf("%s original: %w", fam.Name, err)
		}
	}
	noArrays := func() [][]int64 { return nil }

	var sc driver.Scratch
	var out []PressureEntry
	for _, k := range PressureKs {
		for _, algo := range Algos {
			e := PressureEntry{Scope: "suite", Pipeline: algo.String(), K: k}
			for i, w := range ws {
				g := RunPipeline(origs[i], algo).Func
				if err := pressurePoint(&e, w.Name, wants[i], g, k, w.Args, w.Arrays, &sc); err != nil {
					return nil, err
				}
			}
			out = append(out, e)
		}
		for fi, fam := range fams {
			for _, algo := range Algos {
				e := PressureEntry{Scope: fam.Name, Pipeline: algo.String(), K: k}
				g := RunPipeline(famFuncs[fi], algo).Func
				if err := pressurePoint(&e, fam.Name, famWants[fi], g, k, nil, noArrays, &sc); err != nil {
					return nil, err
				}
				out = append(out, e)
			}
		}
	}
	return out, nil
}

// FormatPressureSweep renders the sweep as the text table `experiments
// -pressure` prints, one row per (scope, pipeline, k) cell.
func FormatPressureSweep(entries []PressureEntry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-9s %3s %6s %7s %8s %7s %7s %9s %10s\n",
		"scope", "pipeline", "k", "funcs", "spills", "reloads", "rounds",
		"colors", "pressure", "spill_ops")
	for _, e := range entries {
		fmt.Fprintf(&b, "%-18s %-9s %3d %6d %7d %8d %7d %7d %9d %10d\n",
			e.Scope, e.Pipeline, e.K, e.Funcs, e.Spills, e.Reloads, e.Rounds,
			e.ColorsUsed, e.MaxPressure, e.SpillOps)
	}
	return b.String()
}
