package bench

import (
	"testing"

	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/ir"
)

// TestPipelineComputesDominatorsOnce guards against the pipelines
// recomputing a dominator tree they could reuse: every pipeline builds
// dominators exactly once, during SSA construction. The Briggs variants
// in particular used to rebuild the tree for their loop-depth query even
// though φ-web joining leaves the CFG untouched.
func TestPipelineComputesDominatorsOnce(t *testing.T) {
	w, ok := WorkloadByName("tomcatv")
	if !ok {
		t.Fatal("tomcatv workload missing")
	}
	f, err := CompileWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algos {
		before := dom.RecomputeCount()
		res := RunPipeline(f, algo)
		if got := dom.RecomputeCount() - before; got != 1 {
			t.Errorf("%v: %d dominator computations for one function, want 1", algo, got)
		}
		if res.SSAStats.Dom == nil {
			t.Errorf("%v: SSA build did not publish its dominator tree", algo)
		}
	}
}

// TestPipelineMatchesDriver pins the single pipeline definition:
// RunPipeline is a thin wrapper over the driver's BuildSSA and Destruct,
// so for every pipeline its output must be byte-identical to the batch
// driver's (warm scratch, one worker) over the kernel suite and every
// CFG family.
func TestPipelineMatchesDriver(t *testing.T) {
	var names []string
	var funcs []*ir.Func
	for _, w := range Workloads() {
		f, err := CompileWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		names, funcs = append(names, w.Name), append(funcs, f)
	}
	for _, fam := range Families() {
		names, funcs = append(names, fam.Name), append(funcs, fam.Build(64))
	}
	jobs := make([]driver.Job, len(funcs))
	for i, f := range funcs {
		jobs[i] = driver.Job{Name: names[i], Func: f}
	}
	for _, algo := range Algos {
		results, _ := driver.Run(jobs, driver.Config{Algo: algo, Workers: 1})
		for i, f := range funcs {
			r := results[i]
			if r.Err != nil {
				t.Fatalf("%v/%s: driver: %v", algo, names[i], r.Err)
			}
			p := RunPipeline(f, algo)
			if got, want := p.Func.String(), r.Func.String(); got != want {
				t.Errorf("%v/%s: RunPipeline output differs from driver.Run", algo, names[i])
			}
			if p.StaticCopies != r.Metrics.StaticCopies {
				t.Errorf("%v/%s: static copies %d, driver %d", algo, names[i], p.StaticCopies, r.Metrics.StaticCopies)
			}
		}
	}
}
