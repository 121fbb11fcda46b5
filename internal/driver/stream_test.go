package driver_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/driver"
)

// streamOnce runs the kernel suite through the streaming engine and
// returns the reducer and engine report.
func streamOnce(t *testing.T, cfg driver.Config) (*driver.StreamStats, *driver.StreamReport) {
	t.Helper()
	red := driver.NewStreamStats()
	rep := driver.RunStream(context.Background(), driver.NewSliceSource(kernelJobs(t)), cfg, driver.StreamOptions{}, red)
	return red, rep
}

// claimTracker wraps a source and a reducer. It counts the jobs claimed
// and reduced, and at every claim samples how many claimed jobs are not
// yet reduced.
type claimTracker struct {
	driver.JobSource
	red driver.Reducer

	mu                         sync.Mutex
	claimed, reduced, inFlight int64
}

func (c *claimTracker) Next() (driver.Job, int64, bool) {
	j, idx, ok := c.JobSource.Next()
	if ok {
		c.mu.Lock()
		c.claimed++
		c.inFlight = max(c.inFlight, c.claimed-c.reduced)
		c.mu.Unlock()
	}
	return j, idx, ok
}

func (c *claimTracker) Reduce(r *driver.Result) {
	c.red.Reduce(r)
	c.mu.Lock()
	c.reduced++
	c.mu.Unlock()
}

// TestStreamDeterministicReduction pins the tentpole determinism
// contract: the reducer's counts are byte-identical no matter the
// worker count — scheduling can only reorder commutative folds.
func TestStreamDeterministicReduction(t *testing.T) {
	for _, algo := range driver.Algos {
		cfg := driver.Config{Algo: algo, Workers: 1}
		base, rep := streamOnce(t, cfg)
		want := base.CountsText()
		if rep.Processed == 0 {
			t.Fatalf("%v: nothing processed", algo)
		}
		for _, workers := range []int{2, 5} {
			cfg.Workers = workers
			got, _ := streamOnce(t, cfg)
			if s := got.CountsText(); s != want {
				t.Errorf("%v workers=%d: counts diverge\n got: %s\nwant: %s",
					algo, workers, s, want)
			}
		}
	}
}

// TestStreamOneJobPerWorker pins the engine's memory bound: a worker
// claims its next job only after reducing the last one, so no more jobs
// than workers are ever claimed and unreduced — on the kernel suite,
// and on a generated corpus whose job costs are skewed.
func TestStreamOneJobPerWorker(t *testing.T) {
	run := func(name string, src driver.JobSource, n int64, workers int) {
		tr := &claimTracker{JobSource: src, red: driver.NewStreamStats()}
		rep := driver.RunStream(context.Background(), tr, driver.Config{Algo: driver.New, Workers: workers},
			driver.StreamOptions{}, tr)
		if tr.inFlight > int64(workers) {
			t.Errorf("%s, %d workers: %d jobs claimed and unreduced at once", name, workers, tr.inFlight)
		}
		if rep.Processed != n || tr.claimed != n || tr.reduced != n {
			t.Errorf("%s, %d workers: processed %d, claimed %d, reduced %d; want %d each",
				name, workers, rep.Processed, tr.claimed, tr.reduced, n)
		}
		if rep.Pulls != rep.Processed {
			t.Errorf("%s, %d workers: %d pulls for %d jobs; want one per job", name, workers, rep.Pulls, rep.Processed)
		}
	}
	jobs := kernelJobs(t)
	for _, workers := range []int{1, 2, 5} {
		run("suite", driver.NewSliceSource(jobs), int64(len(jobs)), workers)
	}
	const n = 2000
	src, err := bench.NewCorpusSource(bench.CorpusSpec{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	run("corpus", src, n, 2)
}

// TestStreamMatchesBatch cross-checks the streamed aggregates against
// the batch path's Snapshot over the same jobs, with the allocator and
// the audit on: the two engines must agree on every count of their
// Totals. Only the phase times, which are measured, may differ.
func TestStreamMatchesBatch(t *testing.T) {
	cfg := driver.Config{Algo: driver.New, Workers: 3, RegallocK: 6, Check: analysis.Fast}
	_, snap := driver.Run(kernelJobs(t), cfg)
	red, _ := streamOnce(t, cfg)
	counts := func(tot driver.Totals) driver.Totals {
		tot.Parse, tot.Build, tot.Destruct, tot.Regalloc, tot.Check = 0, 0, 0, 0, 0
		return tot
	}
	got, want := counts(red.Global().Totals), counts(snap.Totals)
	if got != want {
		t.Errorf("streamed totals differ from batch\n got: %+v\nwant: %+v", got, want)
	}
	if want.Jobs != int64(len(kernelJobs(t))) || want.Errors != 0 || want.Spills == 0 || want.Checked != want.Jobs {
		t.Errorf("batch folded %d jobs (%d errors, %d spills, %d audited); want every kernel compiled and audited, with spills",
			want.Jobs, want.Errors, want.Spills, want.Checked)
	}
}

// TestStreamDrainPrecancelled: a context cancelled before the run
// starts must leave the source unpulled and reduce nothing.
func TestStreamDrainPrecancelled(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	sentinel := errors.New("stop before start")
	cancel(sentinel)
	red := driver.NewStreamStats()
	rep := driver.RunStream(ctx, driver.NewSliceSource(kernelJobs(t)), driver.Config{Workers: 2},
		driver.StreamOptions{}, red)
	g := red.Global()
	if rep.Pulls != 0 || rep.Processed != 0 || g.Jobs != 0 {
		t.Fatalf("pulls %d, processed %d, reduced %d jobs; want none",
			rep.Pulls, rep.Processed, g.Jobs)
	}
}

// TestStreamDrainMidway cancels from inside the tap after a few jobs.
// Every claimed job must still be compiled and reduced; each of the
// other workers finishes at most the one job it holds; and the rest of
// the source stays unpulled.
func TestStreamDrainMidway(t *testing.T) {
	const workers, cancelAt = 2, 5
	jobs := kernelJobs(t)
	ctx, cancel := context.WithCancelCause(context.Background())
	sentinel := errors.New("enough")
	var tapped atomic.Int64
	tap := func(r *driver.Result) {
		if tapped.Add(1) == cancelAt {
			cancel(sentinel)
		}
	}
	tr := &claimTracker{JobSource: driver.NewSliceSource(jobs), red: driver.NewStreamStats()}
	rep := driver.RunStream(ctx, tr, driver.Config{Workers: workers}, driver.StreamOptions{Tap: tap}, tr)
	if tr.reduced != tr.claimed || rep.Processed != tr.claimed {
		t.Fatalf("claimed %d, processed %d, reduced %d; want every claimed job reduced",
			tr.claimed, rep.Processed, tr.reduced)
	}
	if after := tapped.Load() - cancelAt; after < 0 || after > workers-1 {
		t.Errorf("%d jobs finished after the cancelling one; want 0 to %d", after, workers-1)
	}
	if tr.claimed >= int64(len(jobs)) {
		t.Errorf("claimed all %d jobs; a cancel must leave the source unpulled", len(jobs))
	}
}

// TestStreamCheckEvery pins the audit sampling: with CheckEvery = 5
// exactly the multiples-of-5 indices carry a Report, and the reducer's
// Checked count matches.
func TestStreamCheckEvery(t *testing.T) {
	jobs := kernelJobs(t)
	const every = 5
	var mu sync.Mutex
	checked := map[int]bool{}
	tap := func(r *driver.Result) {
		mu.Lock()
		checked[r.Index] = r.Report != nil
		mu.Unlock()
	}
	red := driver.NewStreamStats()
	driver.RunStream(context.Background(), driver.NewSliceSource(jobs),
		driver.Config{Workers: 3, Check: analysis.Full},
		driver.StreamOptions{CheckEvery: every, Tap: tap}, red)
	wantChecked := 0
	for i := range jobs {
		want := i%every == 0
		if want {
			wantChecked++
		}
		if checked[i] != want {
			t.Errorf("job %d: report=%v, want %v", i, checked[i], want)
		}
	}
	if g := red.Global(); g.Checked != int64(wantChecked) {
		t.Errorf("reducer Checked=%d, want %d", g.Checked, wantChecked)
	}
	if g := red.Global(); g.CheckFindings != 0 {
		t.Errorf("sampled audit reported %d findings", g.CheckFindings)
	}
}

// TestSpoolRoundTrip writes a mixed corpus (mini-language, IR text, and
// a prebuilt Func) to a spool, replays it, and checks the reduction is
// byte-identical to streaming the originals directly.
func TestSpoolRoundTrip(t *testing.T) {
	jobs := kernelJobs(t)
	jobs = append(jobs, driver.Job{
		Name: "irjob", Family: "irfam", IR: true,
		Src: "func irjob(n) {\nb0:\n\tx = param 0\n\tret x\n}\n",
	})
	pre, _ := driver.Run(jobs[:1], driver.Config{Algo: driver.Standard})
	if pre[0].Err != nil {
		t.Fatal(pre[0].Err)
	}
	jobs = append(jobs, driver.Job{Name: "prebuilt", Family: "irfam", Func: pre[0].Func})

	path := filepath.Join(t.TempDir(), "corpus.fcs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := driver.NewSpoolWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := sw.WriteJob(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if sw.Count() != int64(len(jobs)) {
		t.Fatalf("wrote %d records, want %d", sw.Count(), len(jobs))
	}

	cfg := driver.Config{Algo: driver.New, Workers: 2}
	direct := driver.NewStreamStats()
	driver.RunStream(context.Background(), driver.NewSliceSource(jobs), cfg, driver.StreamOptions{}, direct)

	src, err := driver.OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	replay := driver.NewStreamStats()
	rep := driver.RunStream(context.Background(), src, cfg, driver.StreamOptions{}, replay)
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Processed != int64(len(jobs)) {
		t.Fatalf("replayed %d of %d jobs", rep.Processed, len(jobs))
	}
	if got, want := replay.CountsText(), direct.CountsText(); got != want {
		t.Errorf("spool replay diverges from direct stream\n got: %s\nwant: %s", got, want)
	}
}

// TestSpoolTruncated: cutting a spool mid-record must surface through
// Err, not silently shorten the corpus.
func TestSpoolTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.fcs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sw, _ := driver.NewSpoolWriter(f)
	for _, j := range kernelJobs(t)[:4] {
		if err := sw.WriteJob(j); err != nil {
			t.Fatal(err)
		}
	}
	sw.Flush()
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := driver.OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	red := driver.NewStreamStats()
	driver.RunStream(context.Background(), src, driver.Config{Workers: 1}, driver.StreamOptions{}, red)
	if src.Err() == nil {
		t.Fatal("truncated spool replayed without error")
	}
}

// TestSpoolCorruptLength: a record whose first field length is corrupt
// must end the replay with an error from Err that names the record. The
// length is checked before anything is allocated: 2⁶² would panic in
// make, and 2⁴⁰ would exhaust memory, which recover cannot catch.
func TestSpoolCorruptLength(t *testing.T) {
	replay := func(data []byte) (driver.FamilyAgg, error) {
		path := filepath.Join(t.TempDir(), "corrupt.fcs")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := driver.OpenSpool(path)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		red := driver.NewStreamStats()
		driver.RunStream(context.Background(), src, driver.Config{Workers: 1}, driver.StreamOptions{}, red)
		return red.Global(), src.Err()
	}
	for _, ln := range []uint64{1 << 62, 1 << 40} {
		data := binary.AppendUvarint([]byte("FCSPOOL1\n"), ln)
		data = append(data, make([]byte, 21-len(data))...)
		if _, err := replay(data); err == nil || !strings.Contains(err.Error(), "spool record 0") {
			t.Errorf("length %d: Err() = %v, want an error naming record 0", ln, err)
		}
	}

	// Mid-stream: exactly the records before the corrupt one replay.
	// The bytes after its length are the rest of that record, not the
	// next one, so decoding on would compile garbage and replace the
	// first error with a later one.
	var spool bytes.Buffer
	sw, err := driver.NewSpoolWriter(&spool)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int
	for _, j := range kernelJobs(t)[:4] {
		sw.Flush()
		offs = append(offs, spool.Len())
		if err := sw.WriteJob(j); err != nil {
			t.Fatal(err)
		}
	}
	sw.Flush()
	for _, rec := range []int{1, 2} {
		data := spool.Bytes()
		_, n := binary.Uvarint(data[offs[rec]:])
		bad := binary.AppendUvarint(bytes.Clone(data[:offs[rec]]), 1<<40)
		bad = append(bad, data[offs[rec]+n:]...)
		g, err := replay(bad)
		if g.Jobs != int64(rec) || g.Errors != 0 {
			t.Errorf("record %d corrupt: replayed %d jobs (%d failed), want the %d before it",
				rec, g.Jobs, g.Errors, rec)
		}
		if want := fmt.Sprintf("spool record %d:", rec); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("record %d corrupt: Err() = %v, want an error naming record %d", rec, err, rec)
		}
	}
}
