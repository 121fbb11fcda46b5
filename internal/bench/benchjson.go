package bench

// This file holds the schema of the committed performance baselines
// (BENCH_*.json). They are the record of how the suite measured across
// the repository's history, read back by TestCommittedBenchReports and
// TestCommittedCorpusReport; nothing writes them any more.

// BenchEntry is one measured configuration.
type BenchEntry struct {
	Name         string  `json:"name"`               // workload or micro target
	Pipeline     string  `json:"pipeline,omitempty"` // Standard | New | Briggs | Briggs*
	Mode         string  `json:"mode"`               // cold | warm
	Iters        int     `json:"iters"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	CopiesPerOp  float64 `json:"copies_per_op"`
	MatrixBPerOp float64 `json:"matrix_bytes_per_op,omitempty"`
}

// ScalingEntry is one size point of the O(n α(n)) study (best-of-3 phase
// times, seconds). Family is empty for the kernel-language generator and
// names a famgen.go builder for the substrate-stress points.
type ScalingEntry struct {
	Family     string  `json:"family,omitempty"`
	Stmts      int     `json:"stmts"`
	Blocks     int     `json:"blocks"`
	StandardNs float64 `json:"standard_ns"`
	NewNs      float64 `json:"new_ns"`
	NewAlgoNs  float64 `json:"new_algo_ns"` // the four coalescing steps alone
	BriggsNs   float64 `json:"briggs_ns"`
	StarNs     float64 `json:"briggs_star_ns"`
}

// CorpusEntry is one row of the streamed sweep as the committed
// BENCH_10.json records it: the "*" family row carries the run-wide
// engine numbers, family rows the per-family aggregates.
type CorpusEntry struct {
	Pipeline  string  `json:"pipeline"`
	Family    string  `json:"family"` // "*" for the whole run
	Jobs      int64   `json:"jobs"`
	Errors    int64   `json:"errors,omitempty"`
	Phis      int64   `json:"phis"`
	Inserted  int64   `json:"copies_inserted"`
	Coalesced int64   `json:"copies_coalesced"`
	Static    int64   `json:"static_copies"`
	K         int     `json:"k,omitempty"`
	Spills    int64   `json:"spills,omitempty"`
	Checked   int64   `json:"checked,omitempty"`
	Findings  int64   `json:"findings,omitempty"`
	WallNs    float64 `json:"wall_ns,omitempty"`         // "*" rows only
	FuncsSec  float64 `json:"funcs_per_sec,omitempty"`   // "*" rows only
	PeakHeapB int64   `json:"peak_heap_bytes,omitempty"` // "*" rows only
	Pulls     int64   `json:"pulls,omitempty"`           // "*" rows only
	Steals    int64   `json:"steals,omitempty"`          // "*" rows only
}

// SchedEntry is one measurement of the retired scheduler microbenchmark
// (the same prebuilt skew-cost jobs, claimed either one at a time off
// the shared counter or in chunks with stealing); the committed
// BENCH_10.json carries two.
type SchedEntry struct {
	Mode    string  `json:"mode"` // single-counter | chunked-stealing
	Workers int     `json:"workers"`
	Chunk   int     `json:"chunk"`
	Jobs    int64   `json:"jobs"`
	WallNs  float64 `json:"wall_ns"` // best of 3
	Pulls   int64   `json:"pulls"`
	Steals  int64   `json:"steals"`
}

// BenchReport is the full baseline document.
type BenchReport struct {
	Schema    string          `json:"schema"`
	Label     string          `json:"label"`
	GoVersion string          `json:"go_version"`
	GOOS      string          `json:"goos"`
	GOARCH    string          `json:"goarch"`
	NumCPU    int             `json:"num_cpu"`
	Workloads []BenchEntry    `json:"workloads"`
	Micro     []BenchEntry    `json:"micro"`
	Scaling   []ScalingEntry  `json:"scaling"`
	Cache     []BenchEntry    `json:"cache,omitempty"`    // result-cache off/fill/hit batch costs
	Serve     []BenchEntry    `json:"serve,omitempty"`    // warm shard-pool submit floor per shard count
	Pressure  []PressureEntry `json:"pressure,omitempty"` // register-pressure sweep at k=4/8/16/32
	Corpus    []CorpusEntry   `json:"corpus,omitempty"`   // streamed-corpus sweep (per pipeline × family)
	Sched     []SchedEntry    `json:"sched,omitempty"`    // scheduler contention microbenchmark
}
