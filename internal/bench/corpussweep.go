package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/driver"
)

// The streamed-corpus sweep: synthesize a skew-cost corpus of N
// functions per pipeline, stream it through the bounded-memory engine,
// and return the streaming reducer's global and per-family folds plus
// the engine's scheduler and peak-heap counters. A differential spot
// check re-synthesizes sampled indices and replays them through the
// batch path, asserting the streamed pipeline produced byte-identical
// output.

// CorpusRun is one pipeline's pass of the streamed sweep.
type CorpusRun struct {
	Algo     Algo
	Global   driver.Totals
	Families []driver.FamilyAgg // sorted by name
	Report   *driver.StreamReport
}

// CorpusOptions configure RunCorpusSweep.
type CorpusOptions struct {
	N          int64    // jobs per pipeline
	Families   []string // empty = every family (famgen + gen)
	Seed       int64
	Workers    int       // 0 = GOMAXPROCS
	RegallocK  int       // 0 = allocator off
	CheckEvery int       // audit every Nth job at analysis.Full; 0 = off
	SpotCheck  int       // differential samples per pipeline vs the batch path; 0 = off
	Log        io.Writer // transcript; nil = discard
}

// spotSample is one captured streamed output, keyed by global index.
type spotSample struct {
	name string
	text []byte
	err  bool
}

// RunCorpusSweep streams the corpus through all four pipelines and
// returns one CorpusRun per pipeline, in Algos order.
func RunCorpusSweep(opt CorpusOptions) ([]CorpusRun, error) {
	logw := opt.Log
	if logw == nil {
		logw = io.Discard
	}
	if opt.N <= 0 {
		opt.N = 100_000
	}
	var runs []CorpusRun
	for _, algo := range Algos {
		src, err := NewCorpusSource(CorpusSpec{N: opt.N, Families: opt.Families, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		cfg := driver.Config{Algo: algo, Workers: opt.Workers, RegallocK: opt.RegallocK}
		if opt.CheckEvery > 0 {
			cfg.Check = analysis.Full
		}

		// The spot check captures every step-th streamed output (bounded:
		// SpotCheck samples) for replay through the batch path below.
		var mu sync.Mutex
		samples := map[int64]spotSample{}
		step := int64(0)
		if opt.SpotCheck > 0 {
			step = opt.N / int64(opt.SpotCheck)
			if step < 1 {
				step = 1
			}
		}
		var tap func(*driver.Result)
		if step > 0 {
			tap = func(r *driver.Result) {
				idx := int64(r.Index)
				if idx%step != 0 || idx/step >= int64(opt.SpotCheck) {
					return
				}
				s := spotSample{name: r.Name, err: r.Err != nil}
				if r.Func != nil {
					s.text = r.Func.AppendText(nil)
				}
				mu.Lock()
				samples[idx] = s
				mu.Unlock()
			}
		}

		red := driver.NewStreamStats()
		rep := driver.RunStream(context.Background(), src, cfg, driver.StreamOptions{
			CheckEvery: opt.CheckEvery, Tap: tap,
		}, red)
		fmt.Fprint(logw, red.Table(rep, algo, opt.RegallocK))

		g := red.Global()
		if g.Jobs != opt.N {
			return nil, fmt.Errorf("%v: streamed %d of %d jobs", algo, g.Jobs, opt.N)
		}
		if g.Errors > 0 {
			return nil, fmt.Errorf("%v: %d job errors in streamed corpus", algo, g.Errors)
		}
		if g.CheckFindings > 0 {
			return nil, fmt.Errorf("%v: %d audit findings in streamed corpus", algo, g.CheckFindings)
		}
		runs = append(runs, CorpusRun{Algo: algo, Global: g.Totals, Families: red.Families(), Report: rep})

		if step > 0 {
			if err := spotCheck(src, cfg, samples); err != nil {
				return nil, fmt.Errorf("%v: %w", algo, err)
			}
			fmt.Fprintf(logw, "  spot-check:    %d sampled jobs match the batch path\n", len(samples))
		}
	}
	return runs, nil
}

// spotCheck re-synthesizes each sampled index and replays it through
// the batch path (driver.Run) under the identical config, asserting the
// streamed engine produced the same bytes.
func spotCheck(src *CorpusSource, cfg driver.Config, samples map[int64]spotSample) error {
	idxs := make([]int64, 0, len(samples))
	for idx := range samples {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		want := samples[idx]
		job := src.JobAt(idx)
		results, _ := driver.Run([]driver.Job{job}, cfg)
		r := results[0]
		if (r.Err != nil) != want.err {
			return fmt.Errorf("spot-check #%d (%s): batch err=%v, streamed err=%v", idx, job.Name, r.Err, want.err)
		}
		var got []byte
		if r.Func != nil {
			got = r.Func.AppendText(nil)
		}
		if !bytes.Equal(got, want.text) {
			return fmt.Errorf("spot-check #%d (%s): streamed output differs from batch path", idx, job.Name)
		}
	}
	return nil
}
