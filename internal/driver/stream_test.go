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

// streamOnce runs the kernel suite through the streaming engine,
// claiming at most chunk jobs per pull, and returns the reducer and
// engine report.
func streamOnce(t *testing.T, cfg driver.Config, chunk int) (*driver.StreamStats, *driver.StreamReport) {
	t.Helper()
	red := driver.NewStreamStats()
	src := pullLimit{driver.NewSliceSource(kernelJobs(t)), chunk}
	rep := driver.RunStream(context.Background(), src, cfg, driver.StreamOptions{}, red)
	return red, rep
}

// TestStreamDeterministicReduction pins the tentpole determinism
// contract: the reducer's counts are byte-identical no matter the
// worker count, claim size, or steal order — scheduling can only
// reorder commutative folds.
func TestStreamDeterministicReduction(t *testing.T) {
	for _, algo := range driver.Algos {
		cfg := driver.Config{Algo: algo, Workers: 1}
		base, rep := streamOnce(t, cfg, 1)
		want := base.CountsText()
		if rep.Processed == 0 {
			t.Fatalf("%v: nothing processed", algo)
		}
		for _, workers := range []int{2, 5} {
			cfg.Workers = workers
			for _, chunk := range []int{1, 7, driver.DefaultChunk} {
				got, _ := streamOnce(t, cfg, chunk)
				if s := got.CountsText(); s != want {
					t.Errorf("%v workers=%d chunk=%d: counts diverge\n got: %s\nwant: %s",
						algo, workers, chunk, s, want)
				}
			}
		}
	}
}

// TestStreamMatchesBatch cross-checks the streamed aggregates against
// the batch path's Snapshot over the same jobs, with the allocator and
// the audit on: the two engines must agree on every count of their
// Totals. Only the phase times, which are measured, may differ.
func TestStreamMatchesBatch(t *testing.T) {
	cfg := driver.Config{Algo: driver.New, Workers: 3, RegallocK: 6, Check: analysis.Fast}
	_, snap := driver.Run(kernelJobs(t), cfg)
	red, _ := streamOnce(t, cfg, 8)
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
	if rep.Pulls != 0 || rep.Processed != 0 || g.Jobs != 0 || g.Skipped != 0 {
		t.Fatalf("pulls %d, processed %d, reduced %d jobs and %d skips; want none",
			rep.Pulls, rep.Processed, g.Jobs, g.Skipped)
	}
}

// TestStreamDrainMidway cancels from inside the reducer after a few
// jobs: the engine must still account for every pulled job — some
// compiled, the remainder stamped Skipped. The suite fits in one pull,
// so every job is pulled before the cancel.
func TestStreamDrainMidway(t *testing.T) {
	jobs := kernelJobs(t)
	if len(jobs) > driver.DefaultChunk {
		t.Fatalf("%d jobs do not fit in one pull of %d", len(jobs), driver.DefaultChunk)
	}
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
		driver.StreamOptions{Tap: tap}, red)
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
	rep := driver.RunStream(context.Background(), pullLimit{src, 3}, cfg, driver.StreamOptions{}, replay)
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
