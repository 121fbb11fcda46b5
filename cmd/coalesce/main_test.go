package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fastcoalesce/internal/analysis"
	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/ssa"
)

// algoNames are the -algo spellings under test, including the shell-safe
// alias of briggs*.
var algoNames = []string{"standard", "new", "briggs", "briggs-star"}

// klFuncs compiles every function of every testdata/*.kl file.
func klFuncs(t *testing.T) []*ir.Func {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/*.kl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata/*.kl files (%v)", err)
	}
	var funcs []*ir.Func
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := lang.Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		funcs = append(funcs, fs...)
	}
	return funcs
}

// TestProcessMatchesDriver drives the single-file mode over testdata for
// all four pipelines: its output must be byte-identical to the batch
// driver's, and each function must compute dominators exactly once (the
// SSA build's tree is reused by destruction).
func TestProcessMatchesDriver(t *testing.T) {
	funcs := klFuncs(t)
	for _, name := range algoNames {
		algo, err := driver.ParseAlgo(name)
		if err != nil {
			t.Fatalf("-algo %s: %v", name, err)
		}
		cfg := driver.Config{Algo: algo}
		for _, f := range funcs {
			var buf bytes.Buffer
			before := dom.RecomputeCount()
			if err := process(&buf, f, cfg, singleOpts{}); err != nil {
				t.Fatalf("%s/%s: %v", name, f.Name, err)
			}
			if got := dom.RecomputeCount() - before; got != 1 {
				t.Errorf("%s/%s: %d dominator computations, want 1", name, f.Name, got)
			}

			res, _ := driver.Run([]driver.Job{{Func: f}}, driver.Config{Algo: algo, Workers: 1})
			if res[0].Err != nil {
				t.Fatalf("%s/%s: driver: %v", name, f.Name, res[0].Err)
			}
			want := fmt.Sprintf("=== output %s (%v): %d static copies ===\n%s\n",
				f.Name, algo, res[0].Metrics.StaticCopies, res[0].Func)
			if got := buf.String(); got != want {
				t.Errorf("%s/%s: single-file output differs from driver.Run\ngot:\n%s\nwant:\n%s", name, f.Name, got, want)
			}
		}
	}
}

// TestProcessAuditClean runs the single-file mode under the full audit:
// the name map Destruct hands back must satisfy every checker.
func TestProcessAuditClean(t *testing.T) {
	funcs := klFuncs(t)
	for _, name := range algoNames {
		algo, _ := driver.ParseAlgo(name)
		for _, f := range funcs {
			var buf bytes.Buffer
			if err := process(&buf, f, driver.Config{Algo: algo, Check: analysis.Full}, singleOpts{}); err != nil {
				t.Fatalf("%s/%s: %v\n%s", name, f.Name, err, buf.String())
			}
			if want := fmt.Sprintf("=== audit %s (full): clean ===\n", f.Name); !strings.HasSuffix(buf.String(), want) {
				t.Errorf("%s/%s: audit not clean:\n%s", name, f.Name, buf.String())
			}
		}
	}
}

// batchCopies runs -batch over dir and returns the static copy count it
// reports per job name.
func batchCopies(t *testing.T, dir string, cfg driver.Config) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := runBatch(&buf, dir, cfg, false, 0, ""); err != nil {
		t.Fatalf("-batch: %v\n%s", err, buf.String())
	}
	out := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		fs := strings.Fields(line)
		if len(fs) < 5 || fs[3] != "copies" {
			t.Fatalf("unexpected -batch line %q", line)
		}
		n, err := strconv.Atoi(fs[4])
		if err != nil {
			t.Fatal(err)
		}
		out[fs[0]] = n
	}
	return out
}

// TestBatchHonorsFlavor checks -ssa reaches the batch driver: under
// semi-pruned SSA, -batch must report the same static copies as the
// single-file mode, and (so the test can tell) differ from pruned on the
// kernels written out below.
func TestBatchHonorsFlavor(t *testing.T) {
	dir := t.TempDir()
	for _, w := range bench.Workloads()[:6] {
		if err := os.WriteFile(filepath.Join(dir, w.Name+".kl"), []byte(w.Src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	semi := driver.Config{Algo: driver.Standard, Flavor: ssa.SemiPruned, Workers: 1}
	got := batchCopies(t, dir, semi)
	pruned := batchCopies(t, dir, driver.Config{Algo: driver.Standard, Workers: 1})
	differs := false
	for _, w := range bench.Workloads()[:6] {
		path := filepath.Join(dir, w.Name+".kl")
		fs, err := lang.Compile(w.Src)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			var buf bytes.Buffer
			if err := process(&buf, f, semi, singleOpts{}); err != nil {
				t.Fatal(err)
			}
			var name, algo string
			var want int
			if _, err := fmt.Sscanf(buf.String(), "=== output %s %s %d static copies", &name, &algo, &want); err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			key := path + ":" + f.Name
			if got[key] != want {
				t.Errorf("%s: -batch -ssa semi reports %d copies, single-file %d", key, got[key], want)
			}
			differs = differs || pruned[key] != want
		}
	}
	if !differs {
		t.Error("semi-pruned and pruned agree on every kernel; the test cannot tell the flavors apart")
	}
}

// TestStreamModeReportsCancel: a streamed run whose context is cancelled
// must fail, whether or not the cancel found a claimed job waiting. A
// context cancelled before the run claims nothing at all.
func TestStreamModeReportsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	err := runStreamMode(ctx, &out, "", 100, nil, 1, driver.Config{Algo: driver.New, Workers: 2}, 0, "")
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("pre-cancelled stream returned %v, want an error naming the cancel", err)
	}
	if !strings.Contains(out.String(), "streamed 0") {
		t.Errorf("pre-cancelled stream compiled jobs:\n%s", out.String())
	}
}
