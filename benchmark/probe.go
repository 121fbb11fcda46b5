package main

import (
	"runtime"
	"time"

	"fastcoalesce/internal/cache"
	"fastcoalesce/internal/core"
	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/ifgraph"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/regalloc"
	"fastcoalesce/internal/ssa"
)

// The probe calls each layer's public entry point directly, with warm
// scratch, on a workload's own functions, and records per call the time,
// the heap allocations and the bytes allocated. It isolates a layer the
// pipeline only exercises in combination: a change to liveness shows in
// probe.liveness.compute before it shows in funcs_per_s.

// probeRounds is how many measured rounds each entry point runs, after
// one warm-up round; a metric is the median of the per-round means.
const probeRounds = 3

// probeEntry is one entry point: prepare builds a round's inputs
// (untimed), call runs the entry point on input i.
type probeEntry struct {
	name    string
	layer   string
	n       int // inputs per round
	reps    int // calls per input per round (for entry points that do not mutate)
	prepare func()
	call    func(i int)
}

// probeState holds the functions at each stage of the pipeline.
type probeState struct {
	srcs     []string   // kernel-language sources (functions that have one)
	texts    []string   // New's output as IR text (what coalesced serves)
	pre      []*ir.Func // pre-SSA IR
	ssaFold  []*ir.Func // SSA with copy folding (Standard and New input)
	ssaPlain []*ir.Func // SSA without folding (Briggs input)
	depth    [][]int32  // loop depths of ssaPlain
	newOut   []*ir.Func // New's output (the allocator's input)
}

func newProbeState(rep *Report, fns []*fn) *probeState {
	st := &probeState{}
	for _, f := range fns {
		g, err := f.original()
		if err != nil {
			rep.fail("probe %s: %v", f.name, err)
			continue
		}
		if f.src != "" {
			st.srcs = append(st.srcs, f.src)
		}
		st.pre = append(st.pre, g)
		fold := g.Clone()
		ssa.Build(fold, ssa.Options{FoldCopies: true})
		st.ssaFold = append(st.ssaFold, fold)

		plain := g.Clone()
		ssa.Build(plain, ssa.Options{})
		st.ssaPlain = append(st.ssaPlain, plain)
		st.depth = append(st.depth, dom.New(plain).FindLoops().Depth)
		out := fold.Clone()
		core.Coalesce(out, core.Options{})
		st.newOut = append(st.newOut, out)
		st.texts = append(st.texts, out.String())
	}
	return st
}

// clones copies fs (untimed input preparation for mutating entries).
func clones(dst *[]*ir.Func, fs []*ir.Func) {
	*dst = (*dst)[:0]
	for _, f := range fs {
		*dst = append(*dst, f.Clone())
	}
}

// runProbe measures every entry point and sets the probe metrics.
func runProbe(rep *Report, fns []*fn, log *spanLog) {
	st := newProbeState(rep, fns)
	n := len(st.pre)
	if n == 0 {
		rep.fail("probe: no functions")
		return
	}
	var work []*ir.Func
	var doms []*dom.Tree
	var ssaSc ssa.Scratch
	var domT dom.Tree
	var liveSc liveness.Scratch
	var coreSc core.Scratch
	var raSc regalloc.Scratch
	var briggs, star float64

	c := cache.New(cache.Config{})
	keys := make([]cache.Key, n)
	for i, f := range st.newOut {
		text := f.AppendText(nil)
		keys[i] = cache.Sum(append([]byte("probe\x00"), text...))
		c.Put(keys[i], &cache.Entry{Func: f, Text: text})
	}
	for i, f := range st.ssaPlain {
		g := f.Clone()
		ifgraph.JoinPhiWebs(g)
		briggs += float64(ifgraph.Coalesce(g, ifgraph.Options{Depth: st.depth[i]}).TotalMatrixBytes())
	}

	entries := []probeEntry{
		{name: "lang.compile", layer: "lang", n: len(st.srcs), reps: 1, call: func(i int) {
			if _, err := lang.CompileOne(st.srcs[i]); err != nil {
				rep.fail("probe lang.CompileOne: %v", err)
			}
		}},
		{name: "ir.parse", layer: "ir", n: n, reps: 1, call: func(i int) {
			if _, err := ir.Parse(st.texts[i]); err != nil {
				rep.fail("probe ir.Parse: %v", err)
			}
		}},
		{name: "ssa.build", layer: "ssa", n: n, reps: 1,
			prepare: func() { clones(&work, st.pre) },
			call: func(i int) {
				ssa.Build(work[i], ssa.Options{FoldCopies: true, Scratch: &ssaSc})
			}},
		{name: "dom.recompute", layer: "dom", n: n, reps: 8, call: func(i int) {
			domT.RecomputeWith(st.ssaFold[i], dom.CHK)
		}},
		{name: "liveness.compute", layer: "liveness", n: n, reps: 8, call: func(i int) {
			liveness.ComputeScratch(st.ssaFold[i], &liveSc)
		}},
		{name: "core.coalesce", layer: "core", n: n, reps: 1,
			prepare: func() {
				clones(&work, st.ssaFold)
				doms = doms[:0]
				for _, g := range work {
					doms = append(doms, dom.New(g))
				}
			},
			call: func(i int) {
				core.CoalesceScratch(work[i], core.Options{Dom: doms[i]}, &coreSc)
			}},
		{name: "ssa.destruct-standard", layer: "ssa", n: n, reps: 1,
			prepare: func() { clones(&work, st.ssaFold) },
			call:    func(i int) { ssa.DestructStandard(work[i]) }},
		{name: "ifgraph.coalesce", layer: "ifgraph", n: n, reps: 1,
			prepare: func() { clones(&work, st.ssaPlain); star = 0 },
			call: func(i int) {
				ifgraph.JoinPhiWebs(work[i])
				cs := ifgraph.Coalesce(work[i], ifgraph.Options{Improved: true, Depth: st.depth[i]})
				star += float64(cs.TotalMatrixBytes())
			}},
		{name: "regalloc.allocate", layer: "regalloc", n: n, reps: 1,
			prepare: func() { clones(&work, st.newOut) },
			call: func(i int) {
				if _, err := regalloc.AllocateScratch(work[i], regalloc.Options{K: regallocK}, &raSc); err != nil {
					rep.fail("probe regalloc: %v", err)
				}
			}},
		{name: "cache.get", layer: "cache", n: n, reps: 64, call: func(i int) {
			if _, ok := c.Get(keys[i]); !ok {
				rep.fail("probe cache.Get: resident entry missed")
			}
		}},
	}
	for _, e := range entries {
		if e.n == 0 {
			rep.fail("probe %s: no inputs", e.name)
			continue
		}
		var ns, allocs, bytes []float64
		// Call times are kept in a preallocated slice and turned into
		// spans after the round, so span recording allocates nothing
		// inside the measurement.
		times := make([][2]time.Time, e.reps*e.n)
		for round := 0; round <= probeRounds; round++ {
			if e.prepare != nil {
				e.prepare()
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			var busy time.Duration
			k := 0
			for r := 0; r < e.reps; r++ {
				for i := 0; i < e.n; i++ {
					t0 := time.Now()
					e.call(i)
					t1 := time.Now()
					busy += t1.Sub(t0)
					times[k] = [2]time.Time{t0, t1}
					k++
				}
			}
			runtime.ReadMemStats(&ms1)
			if round == 0 {
				continue // warm-up: fills the scratch
			}
			for _, t := range times {
				log.record(log.id(), 0, e.layer, "probe "+e.name, t[0], t[1])
			}
			calls := float64(e.reps * e.n)
			ns = append(ns, float64(busy)/calls)
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/calls)
			bytes = append(bytes, float64(ms1.TotalAlloc-ms0.TotalAlloc)/calls)
		}
		rep.set("probe."+e.name+".ns", ns...)
		rep.set("probe."+e.name+".allocs", allocs...)
		rep.set("probe."+e.name+".bytes", bytes...)
	}
	rep.set("probe.ifgraph.briggs.matrix_bytes", briggs/float64(n))
	rep.set("probe.ifgraph.briggs-star.matrix_bytes", star/float64(n))
}
