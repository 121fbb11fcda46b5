// Command benchmark is the repository's benchmark: it runs the compiler
// on four workloads — the paper's kernel suite, large functions, the
// streamed generator corpus, and the coalesced compile service — checks
// every output, and prints every metric by name with its unit. The last
// line of standard output is a JSON summary. See README.md.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload suite --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 1 --out base.jsonl        # all workloads; appends a run
//	bash benchmark/run.sh --trace 1 --tracedir traces/     # per-layer run
//	bash benchmark/run.sh -compare base.jsonl head.jsonl   # ten or more runs each
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

// The workloads, in report order.
var workloadNames = []string{"suite", "large", "corpus", "serve"}

// Window sizes, fixed when the benchmark was defined: a window is a job
// or request count, never a duration.
const (
	suitePasses = 10   // passes over the 29 kernels per window
	corpusJobs  = 1000 // corpus jobs per window
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "suite | large | corpus | serve (default: all four)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "run length; fixes the window count")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	traceDir := flag.String("tracedir", "", "with -trace 1: write each workload's spans to DIR/<workload>.jsonl")
	out := flag.String("out", "", "append the run's full results as one JSON line to this file")
	compare := flag.Bool("compare", false, "compare two results files of several runs each: -compare BASE HEAD")
	root := flag.String("root", "", "repository root (default: . or .., whichever holds cmd/coalesced)")
	flag.Parse()

	if *root == "" {
		*root = ".."
		if _, err := os.Stat(filepath.Join("cmd", "coalesced")); err == nil {
			*root = "."
		}
	}
	if *compare {
		spec, err := readSpec(filepath.Join(*root, "BENCHMARK.json"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		worse, err := runCompare(os.Stdout, spec, flag.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if worse > 0 {
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res := &Results{
		Schema: resultsSchema, Commit: commit(*root), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Seconds: *seconds, Traced: *trace == 1,
	}
	fmt.Printf("benchmark: commit %s, %s, num_cpu %d, GOMAXPROCS %d, seed %d, %d s, traced %v\n",
		res.Commit, res.GoVersion, res.NumCPU, res.GOMAXPROCS, res.Seed, res.Seconds, res.Traced)
	for _, name := range names {
		var log *spanLog
		if res.Traced {
			log = newSpanLog()
		}
		rep := runWorkload(ctx, name, *seed, *seconds, log, *root)
		writeHuman(os.Stdout, rep)
		if log != nil && *traceDir != "" {
			if err := os.MkdirAll(*traceDir, 0o755); err != nil {
				rep.fail("%v", err)
			} else if err := log.write(filepath.Join(*traceDir, name+".jsonl")); err != nil {
				rep.fail("writing spans: %v", err)
			}
			rep.Correct = rep.Failed == 0
		}
		res.Reports = append(res.Reports, rep)
	}
	if *out != "" {
		if err := appendRun(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing results:", err)
			return 1
		}
	}
	line, err := summaryLine(res.Reports)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	for _, r := range res.Reports {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// runWorkload runs one workload: traced (per-layer set) when log is
// non-nil, untraced (end-to-end set) otherwise.
func runWorkload(ctx context.Context, name string, seed int64, seconds int, log *spanLog, root string) *Report {
	traced := log != nil
	var w *inproc
	switch name {
	case "suite":
		w = suiteWorkload(suitePasses)
	case "large":
		w = largeWorkload(seed, 1)
	case "corpus":
		w = corpusWorkload(seed, corpusJobs)
	case "serve":
		if traced {
			return runServeTraced(ctx, defaultServeCfg(seed), root, log)
		}
		return runServe(ctx, defaultServeCfg(seed), root, seconds)
	}
	if traced {
		return w.runTraced(ctx, log)
	}
	return w.run(ctx, seconds)
}

// appendRun adds res to the results file at path as one JSON line, so
// repeated runs accumulate into one -compare side.
func appendRun(path string, res *Results) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := fh.Write(append(data, '\n')); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// commit names the checked-out commit, or "unknown" outside a git
// work tree.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
