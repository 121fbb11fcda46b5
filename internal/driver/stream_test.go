package driver_test

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/driver"
)

// streamOnce runs the kernel suite through the streaming engine under
// one schedule and returns the reducer and engine report.
func streamOnce(t *testing.T, cfg driver.Config, opt driver.StreamOptions) (*driver.StreamStats, *driver.StreamReport) {
	t.Helper()
	red := driver.NewStreamStats()
	rep := driver.RunStream(context.Background(), driver.NewSliceSource(kernelJobs(t)), cfg, opt, red)
	return red, rep
}

// TestStreamDeterministicReduction pins the tentpole determinism
// contract: the reducer's counts are byte-identical no matter the
// worker count, chunk size, or whether stealing is on — scheduling can
// only reorder commutative folds.
func TestStreamDeterministicReduction(t *testing.T) {
	for _, algo := range driver.Algos {
		cfg := driver.Config{Algo: algo, Workers: 1}
		base, rep := streamOnce(t, cfg, driver.StreamOptions{Chunk: 1, NoSteal: true})
		want := base.CountsText()
		if rep.Processed == 0 {
			t.Fatalf("%v: nothing processed", algo)
		}
		schedules := []driver.StreamOptions{
			{Chunk: 1},
			{Chunk: 7},
			{Chunk: 64},
			{Chunk: 64, NoSteal: true},
		}
		for _, workers := range []int{2, 5} {
			cfg.Workers = workers
			for _, opt := range schedules {
				got, _ := streamOnce(t, cfg, opt)
				if s := got.CountsText(); s != want {
					t.Errorf("%v workers=%d chunk=%d nosteal=%v: counts diverge\n got: %s\nwant: %s",
						algo, workers, opt.Chunk, opt.NoSteal, s, want)
				}
			}
		}
	}
}

// TestStreamMatchesBatch cross-checks the streamed aggregates against
// the batch path's Snapshot over the same jobs: the two engines must
// agree on every schedule-independent total.
func TestStreamMatchesBatch(t *testing.T) {
	cfg := driver.Config{Algo: driver.New, Workers: 3}
	_, snap := driver.Run(kernelJobs(t), cfg)
	red, _ := streamOnce(t, cfg, driver.StreamOptions{Chunk: 8})
	g := red.Global()
	if g.Jobs != int64(snap.Functions) || g.Errors != 0 {
		t.Fatalf("streamed %d jobs (%d errors), batch compiled %d", g.Jobs, g.Errors, snap.Functions)
	}
	pairs := []struct {
		name         string
		stream, want int64
	}{
		{"phis", g.PhisInserted, snap.PhisInserted},
		{"folded", g.CopiesFolded, snap.CopiesFolded},
		{"inserted", g.CopiesInserted, snap.CopiesInserted},
		{"coalesced", g.CopiesCoalesced, snap.CopiesCoalesced},
		{"static", g.StaticCopies, snap.StaticCopies},
		{"visits", g.LivenessVisits, snap.LivenessVisits},
		{"domruns", g.DomRecomputes, snap.DomRecomputes},
	}
	for _, p := range pairs {
		if p.stream != p.want {
			t.Errorf("%s: streamed %d, batch %d", p.name, p.stream, p.want)
		}
	}
}

// TestStreamDrainPrecancelled: a context cancelled before the run
// starts must reduce every job as Skipped under DrainSource without
// compiling anything.
func TestStreamDrainPrecancelled(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	sentinel := errors.New("stop before start")
	cancel(sentinel)
	jobs := kernelJobs(t)
	red := driver.NewStreamStats()
	rep := driver.RunStream(ctx, driver.NewSliceSource(jobs), driver.Config{Workers: 2},
		driver.StreamOptions{Chunk: 4, DrainSource: true}, red)
	g := red.Global()
	if rep.Processed != 0 || g.Skipped != int64(len(jobs)) {
		t.Fatalf("processed %d, skipped %d; want 0 and %d", rep.Processed, g.Skipped, len(jobs))
	}
}

// TestStreamDrainMidway cancels from inside the reducer after a few
// jobs: the engine must still account for every job — some compiled,
// the pulled remainder stamped Skipped — and, without DrainSource, must
// stop pulling so an unbounded source cannot wedge the drain.
func TestStreamDrainMidway(t *testing.T) {
	jobs := kernelJobs(t)
	ctx, cancel := context.WithCancelCause(context.Background())
	sentinel := errors.New("enough")
	var reduced atomic.Int64
	red := driver.NewStreamStats()
	tap := func(r *driver.Result) {
		if reduced.Add(1) == 5 {
			cancel(sentinel)
		}
	}
	rep := driver.RunStream(ctx, driver.NewSliceSource(jobs), driver.Config{Workers: 2},
		driver.StreamOptions{Chunk: 4, DrainSource: true, Tap: tap}, red)
	g := red.Global()
	if got := rep.Processed + rep.Skipped; got != int64(len(jobs)) {
		t.Fatalf("processed %d + skipped %d != %d jobs", rep.Processed, rep.Skipped, len(jobs))
	}
	if rep.Processed < 5 {
		t.Errorf("cancelled after 5 reduces but only %d processed", rep.Processed)
	}
	if g.Skipped == 0 {
		t.Errorf("midway cancel skipped nothing (processed %d)", rep.Processed)
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
		driver.StreamOptions{Chunk: 4, CheckEvery: every, Tap: tap}, red)
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
	rep := driver.RunStream(context.Background(), src, cfg, driver.StreamOptions{Chunk: 3}, replay)
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
	for _, ln := range []uint64{1 << 62, 1 << 40} {
		data := binary.AppendUvarint([]byte("FCSPOOL1\n"), ln)
		data = append(data, make([]byte, 21-len(data))...)
		path := filepath.Join(t.TempDir(), "corrupt.fcs")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := driver.OpenSpool(path)
		if err != nil {
			t.Fatal(err)
		}
		red := driver.NewStreamStats()
		driver.RunStream(context.Background(), src, driver.Config{Workers: 1}, driver.StreamOptions{}, red)
		src.Close()
		if err := src.Err(); err == nil || !strings.Contains(err.Error(), "spool record 0") {
			t.Errorf("length %d: Err() = %v, want an error naming record 0", ln, err)
		}
	}
}
