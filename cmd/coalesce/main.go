// Command coalesce compiles a kernel-language source file, converts it out
// of SSA form with a chosen algorithm, and prints the rewritten IR and
// statistics.
//
// Usage:
//
//	coalesce [flags] file.kl
//	coalesce -algo new -stats testdata/vswap.kl
//	coalesce -algo briggs* -dump-ssa -run "1,2" kernel.kl
//	coalesce -batch dir/ -jobs 8 -stats
//	coalesce -stream -n 1000000 -families phi-web,gen -jobs 4
//	coalesce -spool corpus.spool -n 100000
//	coalesce -stream -spool corpus.spool -algo briggs*
//
// Flags:
//
//	-algo     standard | new | briggs | briggs* (alias briggs-star)
//	          (default new)
//	-ssa      pruned | semi | minimal: SSA flavor for every mode
//	          (default pruned)
//	-dump-in  print the input IR
//	-dump-ssa print the SSA form before destruction
//	-stats    print conversion statistics
//	-run      comma-separated scalar args: execute before/after and compare
//	-check    none | fast | full: audit the conversion with internal/analysis
//	-regalloc allocate registers after destruction (Chaitin/Briggs, spill
//	          code into a dedicated array; see REGALLOC.md); applies to
//	          single-file, -batch, and -stream modes
//	-k        register count for -regalloc (default 8)
//	-batch    compile every .kl/.ir file under a directory concurrently
//	-jobs     worker count for -batch and -stream (default: one per CPU)
//	-trace    write a JSONL phase trace of the -batch or -stream run to
//	          this file
//	-cachemb  content-addressed result cache budget in MiB for -batch
//	          (0 = off); with -check, hits are revalidated
//	-stream   streamed mode: pull a generated corpus (or a -spool file)
//	          through the bounded-memory engine — jobs are synthesized on
//	          demand and results fold into a streaming reducer, so memory
//	          stays O(workers × chunk) at any corpus size
//	-spool    without -stream: write the generated corpus to this file in
//	          the append-only spool format; with -stream: replay the file
//	          instead of generating
//	-n        corpus size for -stream / -spool generation (default 100000)
//	-families comma-separated corpus families (famgen names plus "gen")
//	          for -stream/-spool generation; empty means all
//	-seed     corpus seed for -stream/-spool generation
//	-checkevery  with -stream and -check: audit only every Nth job
//	          (0 or 1 = audit every job)
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/cache"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/interp"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/obs"
	"fastcoalesce/internal/opt"
	"fastcoalesce/internal/ssa"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "coalesce:", err)
		os.Exit(1)
	}
}

// realMain carries every error back here so deferred writers (trace
// files, buffered stdout) flush before the process exits non-zero.
func realMain() error {
	algoName := flag.String("algo", "new", "standard | new | briggs | briggs* (alias briggs-star)")
	flavorName := flag.String("ssa", "pruned", "pruned | semi | minimal")
	dumpIn := flag.Bool("dump-in", false, "print the input IR")
	dumpSSA := flag.Bool("dump-ssa", false, "print the SSA form")
	stats := flag.Bool("stats", false, "print conversion statistics")
	optimize := flag.Bool("opt", false, "run value numbering + DCE on the SSA form (new/standard only)")
	runArgs := flag.String("run", "", "comma-separated scalar args to execute with")
	checkName := flag.String("check", "none", "audit level: none | fast | full")
	doRegalloc := flag.Bool("regalloc", false, "allocate registers after destruction (see REGALLOC.md)")
	k := flag.Int("k", 8, "register count for -regalloc")
	batch := flag.String("batch", "", "compile every .kl/.ir file under this directory through the batch driver")
	jobs := flag.Int("jobs", 0, "worker count for -batch/-stream (0 = one per CPU)")
	trace := flag.String("trace", "", "write a JSONL phase trace of the -batch/-stream run to this file")
	cachemb := flag.Int("cachemb", 0, "result cache budget in MiB for -batch (0 = off)")
	stream := flag.Bool("stream", false, "streamed mode: run a generated corpus (or a -spool file) through the bounded-memory engine")
	spool := flag.String("spool", "", "spool file: written from the generated corpus without -stream, replayed with -stream")
	corpusN := flag.Int64("n", 100_000, "corpus size for -stream / -spool generation")
	families := flag.String("families", "", "comma-separated corpus families for -stream/-spool generation (empty = all)")
	seed := flag.Int64("seed", 0, "corpus seed for -stream/-spool generation")
	checkEvery := flag.Int("checkevery", 0, "with -stream and -check: audit only every Nth job (0/1 = every job)")
	flag.Parse()

	// Every mode compiles under one Config built from the shared flags.
	var cfg driver.Config
	var err error
	if cfg.Algo, err = driver.ParseAlgo(*algoName); err != nil {
		return err
	}
	if cfg.Flavor, err = ssa.ParseFlavor(*flavorName); err != nil {
		return err
	}
	if cfg.Check, err = analysis.ParseLevel(*checkName); err != nil {
		return err
	}
	if *doRegalloc {
		cfg.RegallocK = *k
	}
	cfg.Workers = *jobs

	if *stream || *spool != "" {
		if *batch != "" {
			return fmt.Errorf("-stream/-spool and -batch are mutually exclusive")
		}
		fams := splitList(*families)
		if !*stream {
			return writeSpool(*spool, *corpusN, fams, *seed)
		}
		return runStreamMode(*spool, *corpusN, fams, *seed, cfg, *checkEvery, *trace)
	}
	if *batch != "" {
		return runBatch(os.Stdout, *batch, cfg, *stats, *cachemb, *trace)
	}
	if *cachemb != 0 {
		return fmt.Errorf("-cachemb applies to -batch mode")
	}
	if *trace != "" {
		return fmt.Errorf("-trace applies to -batch and -stream modes")
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: coalesce [flags] file.kl  |  coalesce -batch dir/")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}
	var funcs []*ir.Func
	if strings.HasSuffix(flag.Arg(0), ".ir") {
		f, err := ir.Parse(string(src))
		if err != nil {
			return err
		}
		funcs = []*ir.Func{f}
	} else {
		funcs, err = lang.Compile(string(src))
		if err != nil {
			return err
		}
	}

	show := singleOpts{dumpIn: *dumpIn, dumpSSA: *dumpSSA, stats: *stats, optimize: *optimize, runArgs: *runArgs}
	for _, f := range funcs {
		if err := process(os.Stdout, f, cfg, show); err != nil {
			return err
		}
	}
	return nil
}

// singleOpts are the single-file mode's presentation flags.
type singleOpts struct {
	dumpIn, dumpSSA, stats, optimize bool
	runArgs                          string
}

// process runs one function through the driver's pipeline — BuildSSA,
// then Destruct, then the optional Allocate backend — cold and on one
// goroutine, printing to w. It adds only what the single-file mode
// shows: -opt and -dump-ssa between the two halves, the statistics, the
// audit report, and the -run differential.
func process(w io.Writer, orig *ir.Func, cfg driver.Config, show singleOpts) error {
	if show.dumpIn {
		fmt.Fprintf(w, "=== input %s ===\n%s\n", orig.Name, orig)
	}
	f := orig.Clone()
	st, err := driver.BuildSSA(f, cfg, nil)
	if err != nil {
		return fmt.Errorf("%s: %w; use -algo new or standard", f.Name, err)
	}
	fold := cfg.Algo.FoldsCopies()
	if show.optimize {
		if !fold {
			return fmt.Errorf("-opt requires -algo new or standard " +
				"(φ-web joining is unsound on optimized SSA)")
		}
		ost := opt.Optimize(f)
		if show.stats {
			fmt.Fprintf(w, "%s: opt folded=%d simplified=%d numbered=%d dce=%d rounds=%d\n",
				f.Name, ost.Folded, ost.Simplified, ost.Numbered, ost.DeadCode, ost.Rounds)
		}
	}
	if show.dumpSSA {
		fmt.Fprintf(w, "=== ssa %s (%v, fold=%v) ===\n%s\n", f.Name, cfg.Flavor, fold, f)
	}

	// The audit needs the SSA form as destruction saw it.
	var ssaSnap *ir.Func
	if cfg.Check != analysis.None {
		ssaSnap = f.Clone()
	}
	ds, err := driver.Destruct(f, st, cfg, nil)
	if err != nil {
		return err
	}
	if show.stats {
		switch cfg.Algo {
		case driver.Standard:
			fmt.Fprintf(w, "%s: φs=%d folded=%d inserted=%d temps=%d\n",
				f.Name, st.PhisInserted, st.CopiesFolded,
				ds.Standard.CopiesInserted, ds.Standard.TempsCreated)
		case driver.New:
			cs := &ds.Core
			fmt.Fprintf(w, "%s: φs=%d folded=%d unions=%d filters=%v forest-splits=%d local-splits=%d rounds=%d copies=%d classes=%d\n",
				f.Name, st.PhisInserted, st.CopiesFolded,
				cs.InitialUnions, cs.FilterHits, cs.ForestSplits,
				cs.LocalSplits, cs.Rounds, cs.CopiesInserted, cs.Classes)
		default:
			fmt.Fprintf(w, "%s: φs=%d passes=%d coalesced=%d matrix-bytes=%d\n",
				f.Name, st.PhisInserted, len(ds.Graph.Passes),
				ds.Graph.CopiesCoalesced, ds.Graph.TotalMatrixBytes())
		}
	}

	if err := f.Verify(); err != nil {
		return err
	}
	fmt.Fprintf(w, "=== output %s (%v): %d static copies ===\n%s\n",
		f.Name, cfg.Algo, f.CountCopies(), f)

	if cfg.Check != analysis.None {
		rep := analysis.RunAll(&analysis.Unit{
			Algo:    cfg.Algo.String(),
			SSA:     ssaSnap,
			Out:     f,
			NameMap: ds.NameMap,
		}, cfg.Check)
		if rep.Failed() || len(rep.Skipped) > 0 {
			fmt.Fprintf(w, "=== audit %s (%v) ===\n%s", f.Name, cfg.Check, rep)
		} else {
			fmt.Fprintf(w, "=== audit %s (%v): clean ===\n", f.Name, cfg.Check)
		}
		if rep.Failed() {
			return fmt.Errorf("%s: audit reported %d findings", f.Name, len(rep.Diags))
		}
	}

	// Allocation runs after the audit: the name map covers the coalesced
	// names, not the spill temps the rewrite mints.
	if cfg.RegallocK > 0 {
		ra, err := driver.Allocate(f, cfg, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		fmt.Fprintf(w, "=== regalloc %s: k=%d spills=%d reloads=%d stores=%d rounds=%d colors=%d pressure=%d ===\n",
			f.Name, cfg.RegallocK, ra.SpilledVars, ra.Reloads, ra.Stores, ra.Rounds,
			ra.ColorsUsed, ra.MaxPressure)
		if ra.SpilledVars > 0 {
			fmt.Fprintf(w, "%s\n", f)
		}
	}

	if show.runArgs != "" {
		var args []int64
		for _, part := range strings.Split(show.runArgs, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return fmt.Errorf("-run: %w", err)
			}
			args = append(args, v)
		}
		arrays := make([][]int64, len(orig.ArrParams))
		for i := range arrays {
			arrays[i] = make([]int64, 64)
			for j := range arrays[i] {
				arrays[i][j] = int64(j%17 - 8)
			}
		}
		want, err := interp.Run(orig, args, arrays, 100_000_000)
		if err != nil {
			return err
		}
		got, err := interp.Run(f, args, arrays, 100_000_000)
		if err != nil {
			return err
		}
		status := "MATCH"
		if !interp.SameResult(want, got) {
			status = "MISMATCH"
		}
		fmt.Fprintf(w, "run(%v): original=%d rewritten=%d [%s]; dynamic copies %d -> %d\n",
			args, want.Ret, got.Ret, status, want.Counts.Copies, got.Counts.Copies)
	}
	return nil
}

// collectJobs walks dir for .kl/.ir files and turns them into batch
// jobs, one per function, in deterministic (path) order. Notes about
// skipped φ-form inputs go to w.
func collectJobs(dir string, algo driver.Algo, w io.Writer) ([]driver.Job, error) {
	var paths []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && (strings.HasSuffix(path, ".kl") || strings.HasSuffix(path, ".ir")) {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("no .kl or .ir files under %s", dir)
	}

	// The Briggs pipelines rebuild SSA without copy folding and cannot
	// take inputs that are already in SSA form, so φ-form .ir files are
	// skipped (with a note) instead of surfacing as batch errors.
	briggs := !algo.FoldsCopies()

	var batchJobs []driver.Job
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(path, ".ir") {
			if briggs {
				f, err := ir.Parse(string(src))
				if err != nil {
					return nil, fmt.Errorf("%s: %w", path, err)
				}
				if f.CountPhis() > 0 {
					fmt.Fprintf(w, "%-40s SKIP  φ-form input incompatible with %v\n", path, algo)
					continue
				}
			}
			batchJobs = append(batchJobs, driver.Job{Name: path, Src: string(src), IR: true})
			continue
		}
		// A .kl file may hold several functions; submit each one as its
		// own job so they spread across workers.
		funcs, err := lang.Compile(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, f := range funcs {
			batchJobs = append(batchJobs, driver.Job{Name: path + ":" + f.Name, Func: f})
		}
	}
	return batchJobs, nil
}

// buildRecorder creates the observability recorder when tracing demands
// one, plus a close function that flushes the trace sink and surfaces its
// first write error.
func buildRecorder(tracePath string) (*obs.Recorder, func() error, error) {
	var tf *os.File
	var rec *obs.Recorder
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, nil, err
		}
		tf = f
		rec = obs.NewRecorder(obs.Options{Trace: tf})
	}
	closeFn := func() error {
		err := rec.Close() // nil-safe; flushes the JSONL buffer
		if tf != nil {
			if cerr := tf.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && tracePath != "" {
			return fmt.Errorf("writing trace %s: %w", tracePath, err)
		}
		return err
	}
	return rec, closeFn, nil
}

// buildCache builds the content-addressed result cache for -cachemb,
// registering its metrics when a recorder is live. cachemb <= 0 means
// off (a nil cache misses for free).
func buildCache(cachemb int, rec *obs.Recorder) *cache.Cache {
	if cachemb <= 0 {
		return nil
	}
	return cache.New(cache.Config{MaxBytes: int64(cachemb) << 20, Reg: rec.Registry()})
}

// runBatch compiles every .kl/.ir file under dir through the concurrent
// batch driver under cfg, prints one summary line per function to w in
// deterministic (path) order, and finishes with the batch metrics table.
func runBatch(w io.Writer, dir string, cfg driver.Config, stats bool, cachemb int, tracePath string) error {
	out := bufio.NewWriter(w)
	batchJobs, err := collectJobs(dir, cfg.Algo, out)
	if err != nil {
		out.Flush()
		return err
	}
	rec, closeRec, err := buildRecorder(tracePath)
	if err != nil {
		out.Flush()
		return err
	}
	cfg.Obs = rec
	cfg.Cache = buildCache(cachemb, rec)

	results, snap := driver.Run(batchJobs, cfg)
	bad, findings := 0, 0
	for _, r := range results {
		if r.Err != nil {
			bad++
			fmt.Fprintf(out, "%-40s ERROR %v\n", r.Name, r.Err)
			continue
		}
		fmt.Fprintf(out, "%-40s blocks %-4d copies %-4d φs-coalesced %d\n",
			r.Name, r.Func.NumBlocks(), r.Metrics.StaticCopies, r.Metrics.CopiesCoalesced)
		if r.Report != nil && r.Report.Failed() {
			findings += len(r.Report.Diags)
			fmt.Fprintf(out, "%-40s AUDIT findings:\n%s", r.Name, r.Report)
		}
	}
	if stats {
		fmt.Fprintln(out)
		out.WriteString(snap.Table())
	}
	err = closeRec()
	if ferr := out.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("stdout: %w", ferr)
	}
	if err != nil {
		return err
	}
	if bad > 0 || findings > 0 {
		return fmt.Errorf("%d of %d functions failed, %d audit findings",
			bad, len(batchJobs), findings)
	}
	return nil
}

// splitList parses a comma-separated flag value, dropping empty parts.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// writeSpool synthesizes the generated corpus and writes it to path in
// the append-only spool record format, so a later -stream -spool run
// (possibly on another machine) replays the identical jobs.
func writeSpool(path string, n int64, families []string, seed int64) error {
	src, err := bench.NewCorpusSource(bench.CorpusSpec{N: n, Families: families, Seed: seed})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sw, err := driver.NewSpoolWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	for i := int64(0); i < n; i++ {
		if err := sw.WriteJob(src.JobAt(i)); err != nil {
			f.Close()
			return fmt.Errorf("spooling job %d: %w", i, err)
		}
	}
	err = sw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spool %s: %w", path, err)
	}
	fmt.Printf("spooled %d jobs to %s\n", sw.Count(), path)
	return nil
}

// runStreamMode pulls jobs from a generator-backed corpus (or a spool
// file) through the streaming engine and prints the reducer's table.
// Memory stays bounded by workers × chunk no matter how large the
// corpus is; SIGINT/SIGTERM stops pulling and drains in-flight work.
func runStreamMode(spoolPath string, n int64, families []string, seed int64, cfg driver.Config, checkEvery int, tracePath string) error {
	var err error
	var src driver.JobSource
	var spoolSrc *driver.SpoolSource
	if spoolPath != "" {
		if spoolSrc, err = driver.OpenSpool(spoolPath); err != nil {
			return err
		}
		defer spoolSrc.Close()
		src = spoolSrc
	} else {
		cs, err := bench.NewCorpusSource(bench.CorpusSpec{N: n, Families: families, Seed: seed})
		if err != nil {
			return err
		}
		src = cs
	}
	rec, closeRec, err := buildRecorder(tracePath)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg.Obs = rec
	red := driver.NewStreamStats()
	rep := driver.RunStream(ctx, src, cfg, driver.StreamOptions{CheckEvery: checkEvery}, red)
	fmt.Print(red.Table(rep, cfg.Algo, cfg.RegallocK))
	if err := closeRec(); err != nil {
		return err
	}
	if spoolSrc != nil {
		if err := spoolSrc.Err(); err != nil {
			return fmt.Errorf("reading spool %s: %w", spoolPath, err)
		}
	}
	g := red.Global()
	if g.Errors > 0 {
		return fmt.Errorf("%d of %d streamed jobs failed", g.Errors, g.Jobs)
	}
	if g.CheckFindings > 0 {
		return fmt.Errorf("%d audit findings across %d audited jobs", g.CheckFindings, g.Checked)
	}
	if rep.Skipped > 0 {
		return fmt.Errorf("cancelled: %d jobs skipped after %d processed", rep.Skipped, rep.Processed)
	}
	return nil
}
