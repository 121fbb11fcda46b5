package main

import (
	"fmt"
	"math/rand"
	"strings"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/interp"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
)

// Every input is a pure function of the run's seed (the suite's kernels
// are fixed), so the same seed gives the same inputs and the program
// only ever sees generated functions.

// fn is one input function.
type fn struct {
	name string
	src  string   // kernel-language source; "" for IR-built CFG families
	ir   *ir.Func // prebuilt IR; nil for source inputs
	// w carries the interpreter inputs (scalar args and seeded arrays).
	// IR-built families take no parameters, so theirs is empty.
	w bench.Workload
}

func (f *fn) job() driver.Job {
	if f.ir != nil {
		return driver.Job{Name: f.name, Func: f.ir}
	}
	return driver.Job{Name: f.name, Src: f.src}
}

// original returns a private copy of the function before any pass ran.
func (f *fn) original() (*ir.Func, error) {
	if f.ir != nil {
		return f.ir.Clone(), nil
	}
	return lang.CompileOne(f.src)
}

// fuel bounds one interpreter run.
const fuel = 500_000_000

// run executes g on f's inputs.
func (f *fn) run(g *ir.Func) (*interp.Result, error) {
	return interp.Run(g, f.w.Args, f.w.Arrays(), fuel)
}

// mix derives a positive sub-seed from the run seed and a path of
// integers (splitmix64), so every input has its own stream.
func mix(seed int64, path ...int64) int64 {
	x := uint64(seed)
	for _, p := range path {
		x += 0x9e3779b97f4a7c15 + uint64(p)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 2)
}

// genFn generates one kernel-language function of about stmts
// statements from seed, with its interpreter inputs.
func genFn(seed int64, stmts int) *fn {
	w := bench.Generate(seed, bench.GenConfig{Stmts: stmts, MaxDepth: 3, Scalars: 2, Arrays: 1})
	return &fn{name: w.Name, src: w.Src, w: w}
}

// familyFn builds one IR-built CFG family member.
func familyFn(family string, size int) *fn {
	for _, fam := range bench.Families() {
		if fam.Name == family {
			name := fmt.Sprintf("%s-%d", family, size)
			return &fn{name: name, ir: fam.Build(size), w: bench.Workload{Name: name}}
		}
	}
	panic("unknown CFG family " + family)
}

// suiteFns is the paper's kernel suite (Tables 2–5); it ignores the seed.
func suiteFns() []*fn {
	var out []*fn
	for _, w := range bench.Workloads() {
		out = append(out, &fn{name: w.Name, src: w.Src, w: w})
	}
	return out
}

// The large workload: generated programs at fixed statement budgets
// (about 0.9 blocks per statement) plus CFG families at fixed sizes, all
// in the 500–3 200 block range where paper claim 3 shows.
var (
	largeGenStmts = []int{800, 960, 1120, 1280, 1440, 1600, 1760, 1920, 2080, 2240, 2400, 2560, 2720, 2880, 3040, 3200}
	largeFamilies = []struct {
		family string
		size   int
	}{
		{"deep-loops", 256}, {"deep-loops", 1024},
		{"diamond-ladder", 256}, {"diamond-ladder", 512}, {"diamond-ladder", 768},
		{"irreducible-ladder", 256}, {"irreducible-ladder", 512}, {"irreducible-ladder", 1024},
	}
)

func largeFns(seed int64, scale float64) []*fn {
	var out []*fn
	for i, stmts := range largeGenStmts {
		out = append(out, genFn(mix(seed, 1, int64(i)), scaled(stmts, scale)))
	}
	for _, lf := range largeFamilies {
		out = append(out, familyFn(lf.family, scaled(lf.size, scale)))
	}
	return out
}

// scaled shrinks a size for the reduced-size tests (scale 1 is the real
// benchmark).
func scaled(n int, scale float64) int {
	if m := int(float64(n) * scale); m > 2 {
		return m
	}
	return 2
}

// corpusFn turns corpus job idx into an fn, with interpreter inputs
// drawn from the seed for generated (parameterized) functions.
func corpusFn(src *bench.CorpusSource, seed, idx int64) (*fn, error) {
	j := src.JobAt(idx)
	f := &fn{name: j.Name, src: j.Src, ir: j.Func, w: bench.Workload{Name: j.Name}}
	if j.Func == nil {
		g, err := lang.CompileOne(j.Src)
		if err != nil {
			return nil, fmt.Errorf("corpus job %d: %w", idx, err)
		}
		rng := rand.New(rand.NewSource(mix(seed, 3, idx)))
		for range g.Params {
			f.w.Args = append(f.w.Args, int64(rng.Intn(41)-20))
		}
		for range g.ArrParams {
			f.w.ArrayLens = append(f.w.ArrayLens, 8+rng.Intn(24))
		}
	}
	return f, nil
}

// serveSizes is the statement-budget cycle of served functions.
var serveSizes = []int{16, 32, 48, 64}

// serveFns returns the hot set (requested repeatedly, Zipf-distributed)
// and the cold templates (renamed per request, so every cold request
// is a distinct function the cache has never seen).
func serveFns(seed int64, hot, cold int) (hotFns, coldFns []*fn) {
	for i := 0; i < hot; i++ {
		hotFns = append(hotFns, genFn(mix(seed, 4, int64(i)), serveSizes[i%len(serveSizes)]))
	}
	for i := 0; i < cold; i++ {
		coldFns = append(coldFns, genFn(mix(seed, 5, int64(i)), serveSizes[i%len(serveSizes)]))
	}
	return hotFns, coldFns
}

// renamed returns f's source with the function renamed to name.
func renamed(f *fn, name string) string {
	return strings.Replace(f.src, "func "+f.name+"(", "func "+name+"(", 1)
}
