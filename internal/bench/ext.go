package bench

import (
	"fmt"

	"fastcoalesce/internal/core"
	"fastcoalesce/internal/interp"
	"fastcoalesce/internal/opt"
	"fastcoalesce/internal/ssa"
)

// ExtRow compares the New pipeline on plain vs optimized SSA — the
// deployment the paper targets ("replace the current copy-insertion phase
// of an optimizer's SSA implementation", §5). Optimization both shrinks
// the program and makes destruction harder (φ inputs stop being renames
// of one variable); the interesting question is what happens to the
// copies.
type ExtRow struct {
	Name          string
	PlainInstrs   int64 // dynamic instructions, un-optimized pipeline
	OptInstrs     int64 // dynamic instructions, optimized pipeline
	PlainCopies   int64 // dynamic copies, un-optimized pipeline
	OptCopies     int64 // dynamic copies, optimized pipeline
	StaticPlain   int
	StaticOpt     int
	OptRemovedOps int // instructions the optimizer deleted (static)
}

// TableExt runs the extension experiment over the suite, verifying every
// output against the original program.
func TableExt(ws []Workload) ([]ExtRow, error) {
	var rows []ExtRow
	for _, w := range ws {
		f, err := CompileWorkload(w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		row := ExtRow{Name: w.Name}

		plain := f.Clone()
		st := ssa.Build(plain, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
		core.Coalesce(plain, core.Options{Dom: st.Dom})
		if err := CheckAgainstOriginal(f, plain, w); err != nil {
			return nil, err
		}
		row.StaticPlain = plain.CountCopies()

		optd := f.Clone()
		st2 := ssa.Build(optd, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
		before := optd.NumInstrs()
		opt.Optimize(optd)
		row.OptRemovedOps = before - optd.NumInstrs()
		core.Coalesce(optd, core.Options{Dom: st2.Dom})
		if err := CheckAgainstOriginal(f, optd, w); err != nil {
			return nil, fmt.Errorf("optimized: %w", err)
		}
		row.StaticOpt = optd.CountCopies()

		rp, err := interp.Run(plain, w.Args, w.Arrays(), 500_000_000)
		if err != nil {
			return nil, err
		}
		ro, err := interp.Run(optd, w.Args, w.Arrays(), 500_000_000)
		if err != nil {
			return nil, err
		}
		row.PlainInstrs, row.OptInstrs = rp.Counts.Instrs, ro.Counts.Instrs
		row.PlainCopies, row.OptCopies = rp.Counts.Copies, ro.Counts.Copies
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTableExt renders the extension experiment.
func FormatTableExt(rows []ExtRow) string {
	out := "Extension: the New coalescer on plain vs optimized SSA\n"
	out += fmt.Sprintf("%-10s %12s %12s %8s | %10s %10s | %8s %8s\n",
		"File", "instrs", "opt instrs", "speedup", "dyncopies", "opt dyn", "static", "opt st")
	var ti, to float64
	for _, r := range rows {
		sp := float64(r.PlainInstrs) / float64(max(r.OptInstrs, 1))
		out += fmt.Sprintf("%-10s %12d %12d %7.2fx | %10d %10d | %8d %8d\n",
			r.Name, r.PlainInstrs, r.OptInstrs, sp,
			r.PlainCopies, r.OptCopies, r.StaticPlain, r.StaticOpt)
		ti += float64(r.PlainInstrs)
		to += float64(r.OptInstrs)
	}
	out += fmt.Sprintf("%-10s %38.2fx overall instruction reduction\n", "TOTAL", ti/to)
	return out
}
