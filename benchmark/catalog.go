package main

// The metric catalogue. Every workload reports every metric below: the
// end-to-end set on an untraced run, the per-layer set on a traced run.
// BENCHMARK.json lists the same names, units and directions, and holds
// the end-to-end bounds, which only it defines; TestCatalogMatchesSpec
// keeps the two lists in step. The layer and "moves" columns live here
// and in README.md, because the BENCHMARK.json schema has no room for
// them.

// metricDef describes one reported number.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"

	// Layer and Moves (per-layer only) name the module the number
	// belongs to and the end-to-end metrics it should move, on which
	// workloads ("<metrics> on <workloads>"); on the other workloads the
	// prediction for a change to that layer is no change.
	Layer string
	Moves string
}

// endToEnd are the user-visible metrics.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "new.funcs_per_s", Unit: "funcs/s", Better: "higher"},
	{Name: "briggs-star.funcs_per_s", Unit: "funcs/s", Better: "higher"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "p90_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_heap_mib", Unit: "MiB", Better: "lower"},
	{Name: "static_copies", Unit: "count", Better: "lower"},
}

const (
	newTput  = "new.funcs_per_s"
	starTput = "briggs-star.funcs_per_s"
)

// perLayer are the traced run's numbers; they carry no bound.
var perLayer = []metricDef{
	// Self time per compiled function from the driver's phase spans (on
	// serve: the server's phase histograms).
	{Name: "new.lang.parse.ns", Unit: "ns", Better: "lower", Layer: "lang", Moves: "new.funcs_per_s p50_ms on suite large corpus"},
	{Name: "new.dom.ns", Unit: "ns", Better: "lower", Layer: "dom", Moves: "new.funcs_per_s p90_ms on suite large corpus serve"},
	{Name: "new.liveness.ns", Unit: "ns", Better: "lower", Layer: "liveness", Moves: "new.funcs_per_s p90_ms on suite large corpus serve"},
	{Name: "new.ssa.build.ns", Unit: "ns", Better: "lower", Layer: "ssa", Moves: "new.funcs_per_s p90_ms on suite large corpus serve"},
	{Name: "new.core.union.ns", Unit: "ns", Better: "lower", Layer: "core", Moves: "new.funcs_per_s p90_ms on suite large corpus serve"},
	{Name: "new.core.forest.ns", Unit: "ns", Better: "lower", Layer: "core", Moves: "new.funcs_per_s p90_ms on suite large corpus serve"},
	{Name: "new.core.local.ns", Unit: "ns", Better: "lower", Layer: "core", Moves: "new.funcs_per_s p90_ms on suite large corpus serve"},
	{Name: "new.core.rewrite.ns", Unit: "ns", Better: "lower", Layer: "core", Moves: "new.funcs_per_s p90_ms on suite large corpus serve"},
	{Name: "new.ir.verify.ns", Unit: "ns", Better: "lower", Layer: "ir", Moves: "new.funcs_per_s on suite large corpus serve"},
	{Name: "new.driver.job.ns", Unit: "ns", Better: "lower", Layer: "driver", Moves: "new.funcs_per_s p50_ms on suite large corpus serve"},
	{Name: "briggs-star.lang.parse.ns", Unit: "ns", Better: "lower", Layer: "lang", Moves: "briggs-star.funcs_per_s on suite large corpus"},
	{Name: "briggs-star.dom.ns", Unit: "ns", Better: "lower", Layer: "dom", Moves: "briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "briggs-star.liveness.ns", Unit: "ns", Better: "lower", Layer: "liveness", Moves: "briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "briggs-star.ssa.build.ns", Unit: "ns", Better: "lower", Layer: "ssa", Moves: "briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "briggs-star.ir.verify.ns", Unit: "ns", Better: "lower", Layer: "ir", Moves: "briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "briggs-star.ifgraph.ns", Unit: "ns", Better: "lower", Layer: "ifgraph", Moves: "briggs-star.funcs_per_s on suite large corpus serve"},

	// Work counts per compiled function (Result.Metrics; on serve the
	// server's counters).
	{Name: "new.dom.calls", Unit: "count", Better: "lower", Layer: "dom", Moves: "new.funcs_per_s on suite large corpus serve"},
	{Name: "new.liveness.visits", Unit: "count", Better: "lower", Layer: "liveness", Moves: "new.funcs_per_s on suite large corpus serve"},
	{Name: "new.core.copies_inserted", Unit: "count", Better: "lower", Layer: "core", Moves: "static_copies on suite large corpus serve"},
	{Name: "new.core.coalesced_ratio", Unit: "ratio", Better: "higher", Layer: "core", Moves: "static_copies on suite large corpus serve"},
	{Name: "briggs-star.dom.calls", Unit: "count", Better: "lower", Layer: "dom", Moves: "briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "briggs-star.liveness.visits", Unit: "count", Better: "lower", Layer: "liveness", Moves: "briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "briggs-star.ifgraph.coalesced", Unit: "count", Better: "higher", Layer: "ifgraph", Moves: "briggs-star.funcs_per_s on suite large corpus serve"},

	// Quality of the generated code, over the workload's functions: the
	// copies New's output executes on the functions' inputs (Table 4),
	// and its spill operations at k=8.
	{Name: "new.core.dynamic_copies", Unit: "count", Better: "lower", Layer: "core", Moves: "static_copies on suite large corpus serve"},
	{Name: "new.regalloc.spill_ops", Unit: "count", Better: "lower", Layer: "regalloc", Moves: "new.funcs_per_s on corpus"},

	// Go runtime cost per compiled function in the compiling process.
	{Name: "new.runtime.alloc_bytes", Unit: "B", Better: "lower", Layer: "runtime", Moves: "new.funcs_per_s peak_heap_mib on suite large corpus serve"},
	{Name: "new.runtime.gc_cycles", Unit: "1/kfunc", Better: "lower", Layer: "runtime", Moves: "new.funcs_per_s p90_ms on suite large corpus serve"},
	{Name: "briggs-star.runtime.alloc_bytes", Unit: "B", Better: "lower", Layer: "runtime", Moves: "briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "briggs-star.runtime.gc_cycles", Unit: "1/kfunc", Better: "lower", Layer: "runtime", Moves: "briggs-star.funcs_per_s on suite large corpus serve"},

	// The streaming scheduler (0 where it is bypassed: serve).
	{Name: "driver.stream.pulls", Unit: "count", Better: "lower", Layer: "driver", Moves: "new.funcs_per_s briggs-star.funcs_per_s on corpus"},
	{Name: "driver.stream.steals", Unit: "count", Better: "lower", Layer: "driver", Moves: "new.funcs_per_s briggs-star.funcs_per_s on corpus"},
	{Name: "driver.stream.stolen_jobs", Unit: "count", Better: "lower", Layer: "driver", Moves: "new.funcs_per_s briggs-star.funcs_per_s on corpus"},
	{Name: "driver.busy_ratio", Unit: "ratio", Better: "higher", Layer: "driver", Moves: "new.funcs_per_s briggs-star.funcs_per_s on corpus"},

	// The serving layers (0 where they are bypassed: suite, large, corpus).
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Layer: "cache", Moves: "p50_ms on serve"},
	{Name: "cache.evictions", Unit: "count", Better: "lower", Layer: "cache", Moves: "p50_ms p90_ms on serve"},
	{Name: "driver.shard.queue_depth_mean", Unit: "count", Better: "lower", Layer: "driver", Moves: "p90_ms on serve"},
	{Name: "driver.shard.queue_depth_max", Unit: "count", Better: "lower", Layer: "driver", Moves: "p90_ms on serve"},
	{Name: "driver.shard.rejected", Unit: "count", Better: "lower", Layer: "driver", Moves: "p90_ms on serve"},

	// The probe: each layer's public entry point called directly, with
	// warm scratch, on this workload's functions.
	{Name: "probe.lang.compile.ns", Unit: "ns", Better: "lower", Layer: "lang", Moves: "new.funcs_per_s p50_ms on suite large corpus serve"},
	{Name: "probe.lang.compile.allocs", Unit: "count", Better: "lower", Layer: "lang", Moves: "new.funcs_per_s p50_ms on suite large corpus serve"},
	{Name: "probe.lang.compile.bytes", Unit: "B", Better: "lower", Layer: "lang", Moves: "new.funcs_per_s p50_ms on suite large corpus serve"},
	{Name: "probe.ir.parse.ns", Unit: "ns", Better: "lower", Layer: "ir", Moves: "none (no workload submits IR text)"},
	{Name: "probe.ir.parse.allocs", Unit: "count", Better: "lower", Layer: "ir", Moves: "none (no workload submits IR text)"},
	{Name: "probe.ir.parse.bytes", Unit: "B", Better: "lower", Layer: "ir", Moves: "none (no workload submits IR text)"},
	{Name: "probe.ssa.build.ns", Unit: "ns", Better: "lower", Layer: "ssa", Moves: "new.funcs_per_s briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "probe.ssa.build.allocs", Unit: "count", Better: "lower", Layer: "ssa", Moves: "new.funcs_per_s briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "probe.ssa.build.bytes", Unit: "B", Better: "lower", Layer: "ssa", Moves: "new.funcs_per_s briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "probe.dom.recompute.ns", Unit: "ns", Better: "lower", Layer: "dom", Moves: "new.funcs_per_s briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "probe.dom.recompute.allocs", Unit: "count", Better: "lower", Layer: "dom", Moves: "new.funcs_per_s briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "probe.dom.recompute.bytes", Unit: "B", Better: "lower", Layer: "dom", Moves: "new.funcs_per_s briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "probe.liveness.compute.ns", Unit: "ns", Better: "lower", Layer: "liveness", Moves: "new.funcs_per_s briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "probe.liveness.compute.allocs", Unit: "count", Better: "lower", Layer: "liveness", Moves: "new.funcs_per_s briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "probe.liveness.compute.bytes", Unit: "B", Better: "lower", Layer: "liveness", Moves: "new.funcs_per_s briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "probe.core.coalesce.ns", Unit: "ns", Better: "lower", Layer: "core", Moves: "new.funcs_per_s p90_ms on suite large corpus serve"},
	{Name: "probe.core.coalesce.allocs", Unit: "count", Better: "lower", Layer: "core", Moves: "new.funcs_per_s p90_ms on suite large corpus serve"},
	{Name: "probe.core.coalesce.bytes", Unit: "B", Better: "lower", Layer: "core", Moves: "new.funcs_per_s p90_ms peak_heap_mib on suite large corpus serve"},
	{Name: "probe.ssa.destruct-standard.ns", Unit: "ns", Better: "lower", Layer: "ssa", Moves: "none (Standard is not timed end to end)"},
	{Name: "probe.ssa.destruct-standard.allocs", Unit: "count", Better: "lower", Layer: "ssa", Moves: "none (Standard is not timed end to end)"},
	{Name: "probe.ssa.destruct-standard.bytes", Unit: "B", Better: "lower", Layer: "ssa", Moves: "none (Standard is not timed end to end)"},
	{Name: "probe.ifgraph.coalesce.ns", Unit: "ns", Better: "lower", Layer: "ifgraph", Moves: "briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "probe.ifgraph.coalesce.allocs", Unit: "count", Better: "lower", Layer: "ifgraph", Moves: "briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "probe.ifgraph.coalesce.bytes", Unit: "B", Better: "lower", Layer: "ifgraph", Moves: "briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "probe.ifgraph.briggs.matrix_bytes", Unit: "B", Better: "lower", Layer: "ifgraph", Moves: "none (Briggs is not timed end to end)"},
	{Name: "probe.ifgraph.briggs-star.matrix_bytes", Unit: "B", Better: "lower", Layer: "ifgraph", Moves: "briggs-star.funcs_per_s on suite large corpus serve"},
	{Name: "probe.regalloc.allocate.ns", Unit: "ns", Better: "lower", Layer: "regalloc", Moves: "new.funcs_per_s briggs-star.funcs_per_s on corpus"},
	{Name: "probe.regalloc.allocate.allocs", Unit: "count", Better: "lower", Layer: "regalloc", Moves: "new.funcs_per_s briggs-star.funcs_per_s on corpus"},
	{Name: "probe.regalloc.allocate.bytes", Unit: "B", Better: "lower", Layer: "regalloc", Moves: "new.funcs_per_s briggs-star.funcs_per_s peak_heap_mib on corpus"},
	{Name: "probe.cache.get.ns", Unit: "ns", Better: "lower", Layer: "cache", Moves: "p50_ms on serve"},
	{Name: "probe.cache.get.allocs", Unit: "count", Better: "lower", Layer: "cache", Moves: "p50_ms on serve"},
	{Name: "probe.cache.get.bytes", Unit: "B", Better: "lower", Layer: "cache", Moves: "p50_ms on serve"},

	// Tracing cost: traced ÷ untraced wall time of the same window, minus 1.
	{Name: "obs.trace_overhead", Unit: "ratio", Better: "lower", Layer: "obs", Moves: "none (traced runs only)"},
}

// catalog indexes both lists by name.
var catalog = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if _, dup := m[d.Name]; dup {
			panic("duplicate metric " + d.Name)
		}
		m[d.Name] = d
	}
	return m
}()

// metricSet returns the catalogue list a run reports: per-layer when
// traced, end-to-end otherwise.
func metricSet(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
