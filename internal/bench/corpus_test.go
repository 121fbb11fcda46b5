package bench

import (
	"context"
	"strings"
	"testing"

	"fastcoalesce/internal/driver"
)

// pullLimit caps every Pull of its source at n jobs. The JobSource
// contract allows short pulls, so the engine claims at most n jobs at a
// time and the tests can vary the claim size without an engine option.
type pullLimit struct {
	driver.JobSource
	n int
}

func (p pullLimit) Pull(dst []driver.Job) (int, int64) {
	return p.JobSource.Pull(dst[:min(len(dst), p.n)])
}

// TestCorpusSourceDeterminism pins the streamed-corpus determinism
// claim end to end: the same spec reduced under wildly different
// schedules (worker counts, claim sizes) produces byte-identical
// reducer counts, and JobAt is pure (re-synthesizing an index matches
// what the stream saw).
func TestCorpusSourceDeterminism(t *testing.T) {
	spec := CorpusSpec{N: 240, Seed: 7}
	run := func(workers, chunk int) string {
		src, err := NewCorpusSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		red := driver.NewStreamStats()
		rep := driver.RunStream(context.Background(), pullLimit{src, chunk},
			driver.Config{Algo: New, Workers: workers},
			driver.StreamOptions{}, red)
		if rep.Processed != spec.N {
			t.Fatalf("workers=%d chunk=%d: processed %d of %d", workers, chunk, rep.Processed, spec.N)
		}
		if g := red.Global(); g.Errors > 0 {
			t.Fatalf("workers=%d chunk=%d: %d job errors", workers, chunk, g.Errors)
		}
		return red.CountsText()
	}
	want := run(1, 1)
	if !strings.Contains(want, GenFamily+" ") {
		t.Fatalf("counts lack the %q family:\n%s", GenFamily, want)
	}
	for _, fam := range Families() {
		if !strings.Contains(want, fam.Name+" ") {
			t.Errorf("counts lack family %q", fam.Name)
		}
	}
	for _, c := range []struct{ workers, chunk int }{
		{4, 1}, {2, 16}, {3, 64}, {8, 7},
	} {
		if got := run(c.workers, c.chunk); got != want {
			t.Errorf("workers=%d chunk=%d: counts diverge\n got: %s\nwant: %s",
				c.workers, c.chunk, got, want)
		}
	}
}

// TestCorpusJobAtPure: Pull must hand out exactly the jobs JobAt
// synthesizes, so the sweep's differential spot check replays the same
// input the stream compiled.
func TestCorpusJobAtPure(t *testing.T) {
	spec := CorpusSpec{N: 40, Seed: 3}
	src, err := NewCorpusSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCorpusSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]driver.Job, 7)
	seen := int64(0)
	for {
		n, base := src.Pull(buf)
		if n == 0 {
			break
		}
		for k := 0; k < n; k++ {
			got, want := buf[k], ref.JobAt(base+int64(k))
			if got.Name != want.Name || got.Family != want.Family || got.Src != want.Src {
				t.Fatalf("job %d: pull gave %q/%q, JobAt gives %q/%q",
					base+int64(k), got.Name, got.Family, want.Name, want.Family)
			}
			if (got.Func == nil) != (want.Func == nil) {
				t.Fatalf("job %d: prebuilt mismatch", base+int64(k))
			}
			if got.Func != nil && got.Func.String() != want.Func.String() {
				t.Fatalf("job %d: synthesized funcs differ", base+int64(k))
			}
			seen++
		}
	}
	if seen != spec.N {
		t.Fatalf("pulled %d jobs, want %d", seen, spec.N)
	}
	if _, err := NewCorpusSource(CorpusSpec{N: 1, Families: []string{"no-such-family"}}); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// TestCorpusSweepSmoke runs the full sweep small: all four pipelines,
// audit sampling and the differential spot check must all come back
// clean.
func TestCorpusSweepSmoke(t *testing.T) {
	runs, err := RunCorpusSweep(CorpusOptions{
		N: 160, Seed: 11, Workers: 2,
		CheckEvery: 40, SpotCheck: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(Algos) {
		t.Fatalf("%d pipeline runs, want %d", len(runs), len(Algos))
	}
	wantFams := len(Families()) + 1 // famgen families + gen
	for _, r := range runs {
		if r.Global.Jobs != 160 {
			t.Errorf("%v: global fold has %d jobs, want 160", r.Algo, r.Global.Jobs)
		}
		if r.Report.PeakHeap <= 0 {
			t.Errorf("%v: no peak-heap sample", r.Algo)
		}
		if r.Global.Checked == 0 {
			t.Errorf("%v: audit sampling never ran", r.Algo)
		}
		if len(r.Families) != wantFams {
			t.Errorf("%v: %d family folds, want %d", r.Algo, len(r.Families), wantFams)
		}
		jobs := int64(0)
		for _, fa := range r.Families {
			jobs += fa.Jobs
		}
		if jobs != 160 {
			t.Errorf("%v: family folds sum to %d jobs, want 160", r.Algo, jobs)
		}
	}
}
