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
