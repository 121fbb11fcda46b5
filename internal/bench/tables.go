package bench

import (
	"fmt"
	"strings"
	"time"

	"fastcoalesce/internal/ir"
)

// This file regenerates the paper's Tables 1–5 over the workload suite.
// Rows are returned as structs (so tests can assert on them) and formatted
// in the paper's layout by the Format functions.

// Table1Row compares the two interference-graph coalescers on one program
// (paper Table 1: time and first/second-pass graph memory).
type Table1Row struct {
	Name         string
	BriggsTime   time.Duration
	StarTime     time.Duration
	BriggsPass1  int64 // matrix bytes, first build/coalesce pass
	BriggsPass2  int64 // matrix bytes, second pass (0 if only one pass)
	StarPass1    int64
	StarPass2    int64
	BriggsPasses int
	StarPasses   int
}

// Table1 runs Briggs and Briggs* over the suite.
func Table1(ws []Workload, repeat int) ([]Table1Row, error) {
	var rows []Table1Row
	for _, w := range ws {
		f, err := CompileWorkload(w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rb := bestDuration(f, Briggs, repeat)
		rs := bestDuration(f, BriggsStar, repeat)
		row := Table1Row{
			Name:         w.Name,
			BriggsTime:   rb.Duration,
			StarTime:     rs.Duration,
			BriggsPasses: len(rb.Graph.Passes),
			StarPasses:   len(rs.Graph.Passes),
		}
		row.BriggsPass1, row.BriggsPass2 = passBytes(rb)
		row.StarPass1, row.StarPass2 = passBytes(rs)
		if rb.StaticCopies != rs.StaticCopies {
			return nil, fmt.Errorf("%s: Briggs %d copies, Briggs* %d (must be identical, §4.1)",
				w.Name, rb.StaticCopies, rs.StaticCopies)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func passBytes(r *PipelineResult) (p1, p2 int64) {
	ps := r.Graph.Passes
	if len(ps) > 0 {
		p1 = ps[0].MatrixBytes
	}
	if len(ps) > 1 {
		p2 = ps[1].MatrixBytes
	}
	return p1, p2
}

// bestDuration runs the pipeline repeat times and keeps the result with
// the smallest duration (the usual way to suppress timing noise).
func bestDuration(f *ir.Func, algo Algo, repeat int) *PipelineResult {
	best := RunPipeline(f, algo)
	for i := 1; i < repeat; i++ {
		r := RunPipeline(f, algo)
		if r.Duration < best.Duration {
			best = r
		}
	}
	return best
}

// TimedRow holds one program's measurement under the three pipelines of
// Tables 2–5 (Standard, New, Briggs*) plus the paper's ratio columns.
type TimedRow struct {
	Name     string
	Standard float64
	New      float64
	Star     float64
}

// NewOverStandard returns the New/Standard ratio column.
func (r TimedRow) NewOverStandard() float64 { return ratio(r.New, r.Standard) }

// NewOverStar returns the New/Briggs* ratio column.
func (r TimedRow) NewOverStar() float64 { return ratio(r.New, r.Star) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Table2 measures compilation time (seconds) for Standard, New, and
// Briggs*. Each measurement is the best of repeat runs.
func Table2(ws []Workload, repeat int) ([]TimedRow, error) {
	return timedTable(ws, repeat, func(r *PipelineResult) float64 {
		return r.Duration.Seconds()
	})
}

// Table3 measures compiler memory (bytes allocated during conversion).
func Table3(ws []Workload, repeat int) ([]TimedRow, error) {
	return timedTable(ws, repeat, func(r *PipelineResult) float64 {
		return float64(r.AllocBytes)
	})
}

func timedTable(ws []Workload, repeat int, metric func(*PipelineResult) float64) ([]TimedRow, error) {
	var rows []TimedRow
	for _, w := range ws {
		f, err := CompileWorkload(w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		row := TimedRow{Name: w.Name}
		for _, algo := range []Algo{Standard, New, BriggsStar} {
			best := 0.0
			for rep := 0; rep < max(repeat, 1); rep++ {
				r := RunPipeline(f, algo)
				m := metric(r)
				if rep == 0 || m < best {
					best = m
				}
			}
			switch algo {
			case Standard:
				row.Standard = best
			case New:
				row.New = best
			case BriggsStar:
				row.Star = best
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table4 counts dynamic copies executed by each pipeline's output, after
// verifying each output against the original program.
func Table4(ws []Workload) ([]TimedRow, error) {
	return copyTable(ws, func(r *PipelineResult, w Workload) (float64, error) {
		n, err := DynamicCopies(r.Func, w)
		return float64(n), err
	})
}

// Table5 counts static copies remaining in the rewritten code.
func Table5(ws []Workload) ([]TimedRow, error) {
	return copyTable(ws, func(r *PipelineResult, w Workload) (float64, error) {
		return float64(r.StaticCopies), nil
	})
}

func copyTable(ws []Workload, metric func(*PipelineResult, Workload) (float64, error)) ([]TimedRow, error) {
	var rows []TimedRow
	for _, w := range ws {
		f, err := CompileWorkload(w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		row := TimedRow{Name: w.Name}
		for _, algo := range []Algo{Standard, New, BriggsStar} {
			r := RunPipeline(f, algo)
			if err := CheckAgainstOriginal(f, r.Func, w); err != nil {
				return nil, fmt.Errorf("%v: %w", algo, err)
			}
			m, err := metric(r, w)
			if err != nil {
				return nil, err
			}
			switch algo {
			case Standard:
				row.Standard = m
			case New:
				row.New = m
			case BriggsStar:
				row.Star = m
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders Table 1 in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1: interference-graph coalescers — time and graph memory\n")
	fmt.Fprintf(&sb, "%-10s %10s %10s | %12s %12s | %12s %12s | %6s %6s\n",
		"File", "Briggs(s)", "Briggs*(s)",
		"B pass1(B)", "B pass2(B)", "B* pass1(B)", "B* pass2(B)", "Bpass", "B*pass")
	var tB, tS float64
	var mB, mS int64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %10.6f %10.6f | %12d %12d | %12d %12d | %6d %6d\n",
			r.Name, r.BriggsTime.Seconds(), r.StarTime.Seconds(),
			r.BriggsPass1, r.BriggsPass2, r.StarPass1, r.StarPass2,
			r.BriggsPasses, r.StarPasses)
		tB += r.BriggsTime.Seconds()
		tS += r.StarTime.Seconds()
		mB += r.BriggsPass1 + r.BriggsPass2
		mS += r.StarPass1 + r.StarPass2
	}
	n := float64(len(rows))
	fmt.Fprintf(&sb, "%-10s %10.6f %10.6f | matrix bytes: Briggs %d, Briggs* %d (%.1fx)\n",
		"AVERAGE", tB/n, tS/n, mB, mS, float64(mB)/float64(max(mS, 1)))
	return sb.String()
}

// FormatTimedTable renders Tables 2–5 in the paper's layout: three value
// columns plus the New/Standard and New/Briggs* ratios, with an AVERAGE
// row of the ratios.
func FormatTimedTable(title, unit string, rows []TimedRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-10s %14s %14s %14s %12s %12s\n",
		"File", "Standard", "New", "Briggs*", "New/Standard", "New/Briggs*")
	var rs, rb float64
	cnt := 0
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %14.6g %14.6g %14.6g %12.3f %12.3f\n",
			r.Name, r.Standard, r.New, r.Star, r.NewOverStandard(), r.NewOverStar())
		if r.Standard > 0 && r.Star > 0 {
			rs += r.NewOverStandard()
			rb += r.NewOverStar()
			cnt++
		}
	}
	if cnt > 0 {
		fmt.Fprintf(&sb, "%-10s %14s %14s %14s %12.3f %12.3f\n",
			"AVERAGE", "", "", "", rs/float64(cnt), rb/float64(cnt))
	}
	if unit != "" {
		fmt.Fprintf(&sb, "(values in %s)\n", unit)
	}
	return sb.String()
}
