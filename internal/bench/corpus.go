package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"fastcoalesce/internal/driver"
	"fastcoalesce/internal/ir"
)

// CorpusSource is the generator-backed JobSource: it synthesizes a
// corpus of N functions on demand, round-robin across the requested
// families, so a million-function run holds only the jobs currently in
// worker deques. Every job is a pure function of its global index
// (family, size, and seed all derive from it), which buys two
// properties the streamed tests lean on: the corpus is byte-identical
// across schedules, and any sampled index can be re-synthesized later
// for a differential check against the batch path.

// GenFamily is the extra corpus family name for the kernel-language
// generator (famgen names cover the rest).
const GenFamily = "gen"

// DefaultCorpusSizes is the skewed size cycle: successive jobs of one
// family alternate between trivial and deep shapes, so per-job cost
// varies by orders of magnitude — the regime the streaming engine's
// work stealing is for.
var DefaultCorpusSizes = []int{3, 5, 8, 64, 4, 12, 96, 6}

// CorpusSpec configures a CorpusSource.
type CorpusSpec struct {
	N        int64    // total jobs to produce
	Families []string // famgen names and/or "gen"; empty means all
	Seed     int64    // mixed into generated sources and names
}

// CorpusFamilyNames returns every name a CorpusSpec accepts, sorted.
func CorpusFamilyNames() []string {
	names := []string{GenFamily}
	for _, fam := range Families() {
		names = append(names, fam.Name)
	}
	sort.Strings(names)
	return names
}

// CorpusSource implements driver.JobSource.
type CorpusSource struct {
	spec  CorpusSpec
	build []func(int) *ir.Func // parallel to spec.Families; nil for "gen"
	next  atomic.Int64
}

// NewCorpusSource validates the spec and resolves the family builders.
func NewCorpusSource(spec CorpusSpec) (*CorpusSource, error) {
	if spec.N < 0 {
		return nil, fmt.Errorf("corpus: negative N %d", spec.N)
	}
	if len(spec.Families) == 0 {
		spec.Families = CorpusFamilyNames()
	}
	byName := map[string]func(int) *ir.Func{}
	for _, fam := range Families() {
		byName[fam.Name] = fam.Build
	}
	s := &CorpusSource{spec: spec}
	for _, name := range spec.Families {
		if name == GenFamily {
			s.build = append(s.build, nil)
			continue
		}
		b, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("corpus: unknown family %q (want one of %s)",
				name, strings.Join(CorpusFamilyNames(), ", "))
		}
		s.build = append(s.build, b)
	}
	return s, nil
}

// N returns the total number of jobs the source produces.
func (s *CorpusSource) N() int64 { return s.spec.N }

// JobAt synthesizes the job at global index i. It is pure: the sweep's
// spot check re-synthesizes sampled indices and replays them through
// the batch path.
func (s *CorpusSource) JobAt(i int64) driver.Job {
	famIdx := int(i % int64(len(s.build)))
	ord := i / int64(len(s.build)) // per-family ordinal
	name := s.spec.Families[famIdx]
	size := DefaultCorpusSizes[(ord+int64(famIdx))%int64(len(DefaultCorpusSizes))]
	if b := s.build[famIdx]; b != nil {
		return driver.Job{
			Name:   fmt.Sprintf("%s-%d#%d", name, size, ord),
			Family: name,
			Func:   b(size),
		}
	}
	// The kernel-language family: a fresh program per ordinal, sized by
	// the same skew cycle, exercising the full parse → SSA front end.
	w := Generate(s.spec.Seed^(ord*2654435761+int64(famIdx)), GenConfig{
		Stmts: 4 * size, MaxDepth: 3, Scalars: 2, Arrays: 1,
	})
	return driver.Job{
		Name:   fmt.Sprintf("%s-%d#%d", name, size, ord),
		Family: name,
		Src:    w.Src,
	}
}

// Pull implements driver.JobSource: one atomic claim per chunk.
func (s *CorpusSource) Pull(dst []driver.Job) (int, int64) {
	n := int64(len(dst))
	base := s.next.Add(n) - n
	if base >= s.spec.N {
		return 0, base
	}
	end := base + n
	if end > s.spec.N {
		end = s.spec.N
	}
	for k := base; k < end; k++ {
		dst[k-base] = s.JobAt(k)
	}
	return int(end - base), base
}
