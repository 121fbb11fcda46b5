// Command experiments regenerates the paper's evaluation tables (Tables
// 1–5 of "Fast Copy Coalescing and Live-Range Identification", PLDI 2002)
// over this repository's workload suite, plus a scaling study backing the
// O(nα(n)) complexity claim of §3.7.
//
// Usage:
//
//	experiments                 # all tables
//	experiments -table 4        # one table
//	experiments -repeat 9       # more timing repetitions
//	experiments -scaling        # complexity scaling study only
//	experiments -pressure       # register-pressure sweep: all pipelines allocated at k=4/8/16/32
//	experiments -throughput     # batch-compilation throughput study
//	experiments -audit          # checker-overhead study (internal/analysis)
//	experiments -corpus         # streamed-corpus sweep: 10⁶ generated functions
//	                            # per pipeline through the bounded-memory engine
//	experiments -cpuprofile cpu.out -table 2 # pprof any study
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/lang"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// realMain returns every failure instead of exiting in place, so the
// deferred profile writers below actually flush — an os.Exit anywhere in
// a study used to abandon a half-written cpu/mem profile.
func realMain() (err error) {
	table := flag.Int("table", 0, "table to regenerate (1-5; 0 = all)")
	repeat := flag.Int("repeat", 5, "timing repetitions (best-of)")
	scaling := flag.Bool("scaling", false, "run the O(n α(n)) scaling study instead")
	pressure := flag.Bool("pressure", false, "run the register-pressure sweep instead (also a differential gate)")
	ext := flag.Bool("ext", false, "run the optimizer-pipeline extension experiment instead")
	alloc := flag.Int("alloc", 0, "register count for -corpus: allocate every streamed function with this many registers (0 = no allocation)")
	throughput := flag.Bool("throughput", false, "run the batch-compilation throughput study instead")
	audit := flag.Bool("audit", false, "run the checker-overhead study instead")
	checkName := flag.String("check", "none", "audit level for driver-based studies: none | fast | full")
	corpus := flag.Bool("corpus", false, "run the streamed-corpus sweep instead (bounded-memory engine, all four pipelines)")
	corpusN := flag.Int64("n", 1_000_000, "corpus size per pipeline for -corpus")
	families := flag.String("families", "", "comma-separated corpus families for -corpus (empty = all)")
	seed := flag.Int64("seed", 0, "corpus seed for -corpus")
	workers := flag.Int("workers", 0, "worker count for -corpus (0 = one per CPU)")
	checkEvery := flag.Int("checkevery", 4096, "audit every Nth -corpus job at the full level (0 = off)")
	spotCheck := flag.Int("spotcheck", 5, "differential samples per pipeline replayed through the batch path for -corpus (0 = off)")
	memcap := flag.Int("memcap", 0, "fail -corpus if peak heap exceeds this many MiB (0 = no cap)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	level, err := analysis.ParseLevel(*checkName)
	if err != nil {
		return err
	}

	if *cpuprofile != "" {
		pf, cerr := os.Create(*cpuprofile)
		if cerr != nil {
			return cerr
		}
		if cerr := pprof.StartCPUProfile(pf); cerr != nil {
			pf.Close()
			return cerr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := pf.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("writing %s: %w", *cpuprofile, cerr)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			cerr := writeHeapProfile(*memprofile)
			if err == nil && cerr != nil {
				err = cerr
			}
		}()
	}

	switch {
	case *corpus:
		return runCorpus(corpusConfig{
			n: *corpusN, families: *families, seed: *seed,
			workers: *workers, k: *alloc, checkEvery: *checkEvery,
			spotCheck: *spotCheck, memcapMiB: *memcap,
		})
	case *scaling:
		return runScaling()
	case *pressure:
		return runPressure()
	case *throughput:
		return runThroughput(*repeat, level)
	case *audit:
		return runAudit(*repeat)
	case *ext:
		rows, err := bench.TableExt(bench.Workloads())
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTableExt(rows))
		return nil
	}

	ws := bench.Workloads()
	run := func(n int) bool { return *table == 0 || *table == n }

	if run(1) {
		rows, err := bench.Table1(ws, *repeat)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable1(rows))
	}
	if run(2) {
		rows, err := bench.Table2(ws, *repeat)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTimedTable("Table 2: compilation time (SSA build through rewrite)", "seconds", rows))
	}
	if run(3) {
		rows, err := bench.Table3(ws, *repeat)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTimedTable("Table 3: compiler memory (bytes allocated during conversion)", "bytes", rows))
	}
	if run(4) {
		rows, err := bench.Table4(ws)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTimedTable("Table 4: dynamic copies executed", "copy instructions executed", rows))
	}
	if run(5) {
		rows, err := bench.Table5(ws)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTimedTable("Table 5: static copies left in code", "copy instructions", rows))
	}
	return nil
}

// writeHeapProfile snapshots the heap into path after a GC.
func writeHeapProfile(path string) error {
	pf, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(pf)
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// runScaling compiles generated programs of growing size with New and
// Briggs* and reports time per φ-argument: near-constant for New
// (O(n α(n))), growing for the graph-based coalescer.
func runScaling() error {
	fmt.Println("Scaling study: destruction-phase time vs program size (best of 3)")
	fmt.Println("(phase time excludes SSA construction/liveness shared by all pipelines,")
	fmt.Println(" matching the span of the paper's O(n α(n)) claim, §3.7)")
	fmt.Printf("%8s %8s %12s %12s %12s %12s %12s %8s %12s %12s %8s\n",
		"stmts", "blocks", "Standard(s)", "New(s)", "New-algo(s)", "Briggs(s)", "Briggs*(s)", "B*/New",
		"B matrix(B)", "B* matrix(B)", "B/B*")
	for _, stmts := range []int{50, 100, 200, 400, 800, 1600, 3200} {
		w := bench.Generate(int64(stmts), bench.GenConfig{
			Stmts: stmts, MaxDepth: 4, Scalars: 3, Arrays: 2,
		})
		f, err := lang.CompileOne(w.Src)
		if err != nil {
			return err
		}
		best := map[bench.Algo]time.Duration{}
		var newAlgo time.Duration
		var matrixB, matrixBStar int64
		for rep := 0; rep < 3; rep++ {
			for _, algo := range []bench.Algo{bench.Standard, bench.New, bench.Briggs, bench.BriggsStar} {
				r := bench.RunPipeline(f, algo)
				if d, ok := best[algo]; !ok || r.PhaseDuration < d {
					best[algo] = r.PhaseDuration
					switch algo {
					case bench.New:
						newAlgo = r.Core.AlgoTime
					case bench.Briggs:
						matrixB = r.Graph.TotalMatrixBytes()
					case bench.BriggsStar:
						matrixBStar = r.Graph.TotalMatrixBytes()
					}
				}
			}
		}
		ratio := float64(best[bench.BriggsStar]) / float64(best[bench.New])
		memRatio := float64(matrixB) / float64(matrixBStar)
		fmt.Printf("%8d %8d %12.6f %12.6f %12.6f %12.6f %12.6f %8.2f %12d %12d %8.1f\n",
			stmts, f.NumBlocks(),
			best[bench.Standard].Seconds(), best[bench.New].Seconds(), newAlgo.Seconds(),
			best[bench.Briggs].Seconds(), best[bench.BriggsStar].Seconds(), ratio,
			matrixB, matrixBStar, memRatio)
	}
	fmt.Println("\nNew-algo is the four coalescing steps alone (the O(n α(n)) span);")
	fmt.Println("New additionally recomputes dominators and liveness, which every")
	fmt.Println("pipeline needs and which dominates at scale.")

	// The Table 1 headline — the full graph wastes memory quadratically —
	// shows in the copy-sparse regime: many names, few copies (the shape
	// of well-optimized code, lowered by a destination-steering front
	// end).
	fmt.Println("\nCopy-sparse programs (few surviving copies, many names):")
	fmt.Printf("%8s %12s %12s %10s\n", "stmts", "B matrix(B)", "B* matrix(B)", "B/B*")
	for _, stmts := range []int{200, 800, 3200} {
		w := bench.Generate(int64(stmts)+7, bench.GenConfig{
			Stmts: stmts, MaxDepth: 4, Scalars: 3, Arrays: 2, SparseCopies: true,
		})
		f, err := lang.CompileOneWith(w.Src, lang.CompileOptions{SteerDestinations: true})
		if err != nil {
			return err
		}
		rb := bench.RunPipeline(f, bench.Briggs)
		rs := bench.RunPipeline(f, bench.BriggsStar)
		b, s := rb.Graph.TotalMatrixBytes(), rs.Graph.TotalMatrixBytes()
		if s == 0 {
			s = 1
		}
		fmt.Printf("%8d %12d %12d %10.0f\n", stmts, b, s, float64(b)/float64(s))
	}
	return nil
}

// runPressure runs the register-pressure sweep: every pipeline's
// coalesced output allocated at k = 4/8/16/32 over the workload suite
// and the famgen CFG families, with every coloring checked against
// interference computed afresh (regalloc.VerifyAllocation) and every
// allocation interpreter-compared to the original program — any
// divergence is returned as an error, so CI can use this mode as a
// correctness gate.
func runPressure() error {
	fmt.Println("Register-pressure sweep (Chaitin/Briggs allocation of each pipeline's output)")
	fmt.Println("(every cell is interpreter-verified: original vs allocated+spilled code;")
	fmt.Println(" spill_ops = dynamic non-copy instructions added by spill stores/reloads)")
	fmt.Println()
	entries, err := bench.RunPressureSweep()
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatPressureSweep(entries))
	return nil
}

// studyJobs builds the shared compilation stream for the driver-based
// studies: the kernel suite plus n generated functions.
func studyJobs(n int64) []driver.Job {
	var jobs []driver.Job
	for _, w := range bench.Workloads() {
		jobs = append(jobs, driver.Job{Name: w.Name, Src: w.Src})
	}
	for seed := int64(0); seed < n; seed++ {
		w := bench.Generate(seed, bench.GenConfig{Stmts: 120, MaxDepth: 4, Scalars: 3, Arrays: 2})
		jobs = append(jobs, driver.Job{Name: w.Name, Src: w.Src})
	}
	return jobs
}

// runThroughput measures batch-compilation throughput (functions per
// second) for the New pipeline as the driver's worker count grows, plus
// the allocation saving from per-worker Scratch reuse. Worker counts
// beyond runtime.NumCPU() exercise the pool's oversubscription behavior
// but cannot add speedup; the speedup column is only meaningful up to the
// core count, which the header reports.
func runThroughput(repeat int, level analysis.Level) error {
	// The compilation stream: large enough that a batch takes a
	// measurable time per worker count.
	jobs := studyJobs(120)

	ncpu := runtime.NumCPU()
	fmt.Printf("Throughput study: %d functions per batch, New pipeline, best of %d\n", len(jobs), repeat)
	if level != analysis.None {
		fmt.Printf("(per-function audit enabled: -check %v)\n", level)
	}
	fmt.Printf("(host has %d CPU(s); speedup saturates at the core count)\n\n", ncpu)
	fmt.Printf("%8s %14s %14s %10s\n", "workers", "wall", "funcs/sec", "speedup")

	ladder := []int{1, 2, 4, 8}
	for ncpu > ladder[len(ladder)-1] {
		ladder = append(ladder, ladder[len(ladder)-1]*2)
	}
	base := 0.0
	for _, workers := range ladder {
		best := (*driver.Snapshot)(nil)
		for rep := 0; rep < repeat; rep++ {
			results, snap := driver.Run(jobs, driver.Config{Algo: driver.New, Workers: workers, Check: level})
			for _, r := range results {
				if r.Err != nil {
					return r.Err
				}
				if r.Report != nil && r.Report.Failed() {
					return fmt.Errorf("%s: audit findings:\n%s", r.Name, r.Report)
				}
			}
			if best == nil || snap.Wall < best.Wall {
				best = snap
			}
		}
		if base == 0 {
			base = best.FuncsPerSec
		}
		fmt.Printf("%8d %14v %14.1f %9.2fx\n",
			workers, best.Wall.Round(time.Microsecond), best.FuncsPerSec, best.FuncsPerSec/base)
	}

	// Allocation saving from Scratch reuse over the conversion span (SSA
	// build through rewrite — the span of the paper's Tables 2/3), single
	// worker so the delta is attributable. The jobs carry pre-built IR:
	// parsing allocates the same AST either way and would dilute the
	// ratio. A warm-up batch absorbs one-time runtime costs.
	fmt.Println("\nScratch-reuse allocation saving (workers=1, conversion span):")
	irJobs := make([]driver.Job, 0, len(jobs))
	for _, j := range jobs {
		f, err := lang.CompileOne(j.Src)
		if err != nil {
			return err
		}
		irJobs = append(irJobs, driver.Job{Name: j.Name, Func: f})
	}
	cfg := driver.Config{Algo: driver.New, Workers: 1}
	driver.Run(irJobs[:1], cfg)
	_, withScratch := driver.Run(irJobs, cfg)
	cfg.NoScratch = true
	_, noScratch := driver.Run(irJobs, cfg)
	fmt.Printf("%14s %14s %14s\n", "", "bytes", "bytes/func")
	fmt.Printf("%14s %14d %14d\n", "no reuse", noScratch.AllocBytes, noScratch.AllocBytes/int64(len(irJobs)))
	fmt.Printf("%14s %14d %14d\n", "scratch", withScratch.AllocBytes, withScratch.AllocBytes/int64(len(irJobs)))
	fmt.Printf("%14s %13.1f%%\n", "ratio", 100*float64(withScratch.AllocBytes)/float64(noScratch.AllocBytes))

	fmt.Println("\nBatch snapshot at the largest worker count:")
	_, snap := driver.Run(jobs, driver.Config{Algo: driver.New, Workers: ladder[len(ladder)-1]})
	fmt.Print(snap.Table())
	return nil
}

// runAudit measures what the internal/analysis verification suite costs on
// top of each pipeline: batch wall time unaudited, at the static level
// (fast), and with translation validation (full). Workers is pinned to 1 so
// the overhead is attributable to the checkers rather than scheduling.
func runAudit(repeat int) error {
	jobs := studyJobs(60)

	fmt.Printf("Checker-overhead study: %d functions per batch, workers=1, best of %d\n", len(jobs), repeat)
	fmt.Println("(overhead = audited batch wall time / unaudited batch wall time)")
	fmt.Println()
	fmt.Printf("%10s %12s %12s %9s %12s %9s %9s\n",
		"pipeline", "none", "fast", "fast-ovh", "full", "full-ovh", "findings")

	levels := []analysis.Level{analysis.None, analysis.Fast, analysis.Full}
	for _, algo := range driver.Algos {
		walls := map[analysis.Level]time.Duration{}
		var findings int64
		for _, lvl := range levels {
			var best time.Duration
			for rep := 0; rep < repeat; rep++ {
				results, snap := driver.Run(jobs, driver.Config{Algo: algo, Workers: 1, Check: lvl})
				for _, r := range results {
					if r.Err != nil {
						return r.Err
					}
				}
				if rep == 0 || snap.Wall < best {
					best = snap.Wall
				}
				if lvl == analysis.Full {
					findings = snap.CheckFindings
				}
			}
			walls[lvl] = best
		}
		fmt.Printf("%10v %12v %12v %8.2fx %12v %8.2fx %9d\n",
			algo,
			walls[analysis.None].Round(time.Microsecond),
			walls[analysis.Fast].Round(time.Microsecond),
			float64(walls[analysis.Fast])/float64(walls[analysis.None]),
			walls[analysis.Full].Round(time.Microsecond),
			float64(walls[analysis.Full])/float64(walls[analysis.None]),
			findings)
	}
	return nil
}

// corpusConfig carries the -corpus flags.
type corpusConfig struct {
	n          int64
	families   string
	seed       int64
	workers    int
	k          int
	checkEvery int
	spotCheck  int
	memcapMiB  int
}

// runCorpus runs the streamed-corpus sweep: n generated functions per
// pipeline pulled through the bounded-memory engine, per-family
// aggregates from the streaming reducer, and a differential spot check
// replaying sampled indices through the batch path.
func runCorpus(c corpusConfig) error {
	var fams []string
	for _, part := range strings.Split(c.families, ",") {
		if part = strings.TrimSpace(part); part != "" {
			fams = append(fams, part)
		}
	}
	famDesc := "all"
	if len(fams) > 0 {
		famDesc = strings.Join(fams, ",")
	}
	fmt.Printf("Streamed-corpus sweep: %d generated functions per pipeline (families: %s)\n", c.n, famDesc)
	fmt.Printf("(bounded-memory engine: jobs synthesized on demand, chunked claims with\n")
	fmt.Printf(" work stealing, results folded into a streaming reducer; host has %d CPU(s))\n\n", runtime.NumCPU())
	runs, err := bench.RunCorpusSweep(bench.CorpusOptions{
		N: c.n, Families: fams, Seed: c.seed,
		Workers: c.workers, RegallocK: c.k,
		CheckEvery: c.checkEvery, SpotCheck: c.spotCheck,
		Log: os.Stdout,
	})
	if err != nil {
		return err
	}
	if c.memcapMiB > 0 {
		limit := int64(c.memcapMiB) << 20
		for _, r := range runs {
			if r.Report.PeakHeap > limit {
				return fmt.Errorf("%v: peak heap %d bytes exceeds -memcap %d MiB",
					r.Algo, r.Report.PeakHeap, c.memcapMiB)
			}
		}
		fmt.Printf("memcap: every pipeline stayed under %d MiB\n", c.memcapMiB)
	}
	return nil
}
