package driver_test

import (
	"strings"
	"testing"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/driver"
)

// kernelJobs converts the full kernel suite into driver jobs.
func kernelJobs(t *testing.T) []driver.Job {
	t.Helper()
	var jobs []driver.Job
	for _, w := range bench.Workloads() {
		jobs = append(jobs, driver.Job{Name: w.Name, Src: w.Src})
	}
	return jobs
}

// render flattens a batch's outputs into one comparable string, in job
// order, including errors.
func render(t *testing.T, results []driver.Result) string {
	t.Helper()
	var b strings.Builder
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
		if r.Err != nil {
			b.WriteString(r.Name + ": ERROR " + r.Err.Error() + "\n")
			continue
		}
		b.WriteString(r.Func.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelMatchesSerial compiles the kernel suite with every pipeline
// at -jobs 8 and checks the outputs are byte-identical to a serial run.
// Under -race this doubles as the driver's data-race coverage.
func TestParallelMatchesSerial(t *testing.T) {
	jobs := kernelJobs(t)
	for _, algo := range driver.Algos {
		serial, ssnap := driver.Run(jobs, driver.Config{Algo: algo, Workers: 1})
		parallel, psnap := driver.Run(jobs, driver.Config{Algo: algo, Workers: 8})
		if ssnap.Errors != 0 || psnap.Errors != 0 {
			t.Fatalf("%v: errors serial=%d parallel=%d", algo, ssnap.Errors, psnap.Errors)
		}
		if got, want := render(t, parallel), render(t, serial); got != want {
			t.Errorf("%v: parallel output differs from serial", algo)
		}
		if psnap.Functions != len(jobs) {
			t.Errorf("%v: %d functions compiled, want %d", algo, psnap.Functions, len(jobs))
		}
	}
}

// TestScratchMatchesNoScratch checks that per-worker scratch reuse does
// not change any output bit.
func TestScratchMatchesNoScratch(t *testing.T) {
	jobs := kernelJobs(t)
	for _, algo := range driver.Algos {
		reused, _ := driver.Run(jobs, driver.Config{Algo: algo, Workers: 2})
		cold, _ := driver.Run(jobs, driver.Config{Algo: algo, Workers: 2, NoScratch: true})
		if got, want := render(t, reused), render(t, cold); got != want {
			t.Errorf("%v: scratch-reuse output differs from cold compilation", algo)
		}
	}
}

// TestScratchReuseCutsAllocations compiles many same-shaped functions on
// one worker and requires the scratch-reuse batch to allocate at most
// half of the cold baseline (the steady-state claim; measured numbers in
// EXPERIMENTS.md are far lower).
func TestScratchReuseCutsAllocations(t *testing.T) {
	w, ok := bench.WorkloadByName("tomcatv")
	if !ok {
		t.Fatal("tomcatv workload missing")
	}
	f, err := bench.CompileWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]driver.Job, 64)
	for i := range jobs {
		jobs[i] = driver.Job{Name: w.Name, Func: f}
	}
	cfg := driver.Config{Algo: driver.New, Workers: 1}
	// One throwaway run absorbs one-time costs (lazy runtime state) so the
	// two measured runs see the same environment.
	driver.Run(jobs[:1], cfg)
	_, warm := driver.Run(jobs, cfg)
	cfg.NoScratch = true
	_, cold := driver.Run(jobs, cfg)
	if warm.AllocBytes <= 0 || cold.AllocBytes <= 0 {
		t.Fatalf("implausible allocation measurements: warm=%d cold=%d", warm.AllocBytes, cold.AllocBytes)
	}
	ratio := float64(warm.AllocBytes) / float64(cold.AllocBytes)
	t.Logf("alloc: cold=%d warm=%d ratio=%.2f", cold.AllocBytes, warm.AllocBytes, ratio)
	if ratio > 0.5 {
		t.Errorf("scratch reuse allocates %.0f%% of the cold baseline, want <= 50%%", 100*ratio)
	}
}

// TestJobInputForms exercises the three input forms plus error capture:
// a bad job must not disturb its neighbours or the output order.
func TestJobInputForms(t *testing.T) {
	w, _ := bench.WorkloadByName("saxpy")
	f, err := bench.CompileWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	irText := `
func tiny(n) {
b0:
	n = param 0
	x = 1
	y = add x, n
	ret y
}
`
	jobs := []driver.Job{
		{Name: "src", Src: w.Src},
		{Name: "broken", Src: "func oops("},
		{Name: "pre-built", Func: f},
		{Name: "ir", Src: irText, IR: true},
	}
	results, snap := driver.Run(jobs, driver.Config{Algo: driver.New, Workers: 3})
	if snap.Functions != 3 || snap.Errors != 1 {
		t.Fatalf("functions=%d errors=%d, want 3/1", snap.Functions, snap.Errors)
	}
	if results[1].Err == nil {
		t.Error("broken job did not report its parse error")
	}
	for _, i := range []int{0, 2, 3} {
		if results[i].Err != nil {
			t.Errorf("job %d (%s): %v", i, results[i].Name, results[i].Err)
		} else if results[i].Func.CountPhis() != 0 {
			t.Errorf("job %d: φs remain after destruction", i)
		}
	}
	// The pre-built input must never be mutated by the driver.
	if f.String() != results[2].Func.String() && f.CountPhis() != 0 {
		// (clone compiled away from the original; just check φ-freedom of input)
		t.Error("pre-built input mutated")
	}
}

// TestSnapshotTable sanity-checks the rendered metrics block.
func TestSnapshotTable(t *testing.T) {
	jobs := kernelJobs(t)[:4]
	_, snap := driver.Run(jobs, driver.Config{Algo: driver.New, Workers: 2})
	table := snap.Table()
	for _, want := range []string{"pipeline New", "functions 4", "funcs/sec", "ssa-build"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}
