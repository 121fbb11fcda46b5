package ifgraph

import (
	"fmt"
	"sort"

	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/unionfind"
)

// JoinPhiWebs performs the Chaitin/Briggs live-range identification step:
// it unions every φ-node name with its parameters, renames the function to
// the web representatives, and deletes the φ-nodes. This is only safe when
// SSA construction did NOT fold copies — then φ-connected names never
// interfere (§3: "the initial union-find sets would contain only values
// that do not interfere") and no copies need to be inserted.
//
// The returned slice maps every pre-join VarID to its web representative;
// internal/analysis audits it against an independent interference graph.
func JoinPhiWebs(f *ir.Func) []ir.VarID {
	uf := unionfind.New(f.NumVars())
	for _, b := range f.Blocks {
		for i := 0; i < b.NumPhis(); i++ {
			in := &b.Instrs[i]
			for _, a := range in.Args {
				uf.Union(int(in.Def), int(a))
			}
		}
	}
	rep := make([]ir.VarID, f.NumVars())
	for v := range rep {
		rep[v] = ir.VarID(uf.Find(v))
	}
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Op == ir.OpPhi {
				continue
			}
			if in.Op.HasDef() {
				in.Def = rep[in.Def]
			}
			for ai := range in.Args {
				in.Args[ai] = rep[in.Args[ai]]
			}
			if in.Op == ir.OpCopy && in.Def == in.Args[0] {
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	f.IsSSA = false
	return rep
}

// PassStats records one build/coalesce iteration.
type PassStats struct {
	Nodes          int   // live-range names in the graph
	MatrixBytes    int64 // triangular bit-matrix allocation
	AdjBytes       int64 // adjacency-list allocation
	Coalesced      int   // copies removed this pass
	CopiesExamined int
}

// CoalesceStats summarizes a full build/coalesce loop.
type CoalesceStats struct {
	Passes          []PassStats
	CopiesCoalesced int

	// NameMap, filled when Options.RecordNameMap is set, maps every input
	// VarID to the name it carries after all passes (the composition of
	// every pass's union-find).
	NameMap []ir.VarID
}

// TotalMatrixBytes sums the matrix allocations over all passes — the
// quantity Table 1 compares between Briggs and Briggs*.
func (cs *CoalesceStats) TotalMatrixBytes() int64 {
	var n int64
	for _, p := range cs.Passes {
		n += p.MatrixBytes
	}
	return n
}

// Options configures Coalesce.
type Options struct {
	// Improved selects the paper's §4.1 variant (Briggs*): while the
	// build/coalesce loop runs, the graph covers only names involved in
	// copies, reached through a compact mapping array.
	Improved bool

	// Depth gives each block's loop-nesting depth; copies in deeper loops
	// are examined first (the baseline's profitability heuristic, §4.3).
	// A nil Depth means program order.
	Depth []int32

	// MaxPasses bounds the loop as a safety net (0 means no bound).
	MaxPasses int

	// RecordNameMap makes Coalesce publish the cumulative input-name →
	// output-name mapping in CoalesceStats.NameMap for external auditing.
	RecordNameMap bool
}

// Coalesce runs the Chaitin/Briggs build/coalesce loop on φ-free code:
// build the interference graph, coalesce every copy whose source and
// destination do not interfere (merging their nodes in place so later
// decisions in the pass stay conservative), rewrite, and repeat until a
// pass coalesces nothing. It returns per-pass statistics.
func Coalesce(f *ir.Func, opt Options) *CoalesceStats {
	cs := &CoalesceStats{}
	var cum []ir.VarID
	if opt.RecordNameMap {
		cum = make([]ir.VarID, f.NumVars())
		for v := range cum {
			cum[v] = ir.VarID(v)
		}
	}
	for {
		ps, changed := coalescePass(f, opt, cum)
		cs.Passes = append(cs.Passes, ps)
		cs.CopiesCoalesced += ps.Coalesced
		if !changed {
			break
		}
		if opt.MaxPasses > 0 && len(cs.Passes) >= opt.MaxPasses {
			break
		}
	}
	cs.NameMap = cum
	return cs
}

type copySite struct {
	block ir.BlockID
	idx   int
	depth int32
}

// coalescePass runs one build/coalesce iteration. When cum is non-nil it is
// updated in place: each entry is advanced through this pass's union-find,
// composing the cross-pass name mapping.
func coalescePass(f *ir.Func, opt Options, cum []ir.VarID) (PassStats, bool) {
	ps := PassStats{}
	nv := f.NumVars()

	// Gather copies and the node universe.
	universe := make([]int32, nv)
	for i := range universe {
		universe[i] = -1
	}
	var copies []copySite
	mark := func(v ir.VarID) {
		if universe[v] < 0 {
			universe[v] = int32(ps.Nodes)
			ps.Nodes++
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpCopy {
				var d int32
				if opt.Depth != nil {
					d = opt.Depth[b.ID]
				}
				copies = append(copies, copySite{block: b.ID, idx: i, depth: d})
				mark(in.Def)
				mark(in.Args[0])
			} else if !opt.Improved {
				// Original Briggs: every name in the code is a node.
				if in.Op.HasDef() {
					mark(in.Def)
				}
				for _, a := range in.Args {
					mark(a)
				}
			}
		}
	}
	if len(copies) == 0 {
		return ps, false
	}

	live := liveness.Compute(f)
	g := Build(f, live, BuildOptions{Universe: universe, N: ps.Nodes})
	ps.MatrixBytes = g.MatrixBytes
	ps.AdjBytes = g.AdjBytes

	// Deepest loops first; stable within a depth to stay deterministic.
	sort.SliceStable(copies, func(i, j int) bool { return copies[i].depth > copies[j].depth })

	uf := unionfind.New(nv)
	for _, site := range copies {
		in := &f.Blocks[site.block].Instrs[site.idx]
		ps.CopiesExamined++
		rd := ir.VarID(uf.Find(int(in.Def)))
		rs := ir.VarID(uf.Find(int(in.Args[0])))
		if rd == rs {
			in.Op = ir.OpInvalid // now a self copy
			ps.Coalesced++
			continue
		}
		if g.Interfere(universe[rd], universe[rs]) {
			continue
		}
		root, _ := uf.Union(int(rd), int(rs))
		other := rd
		if ir.VarID(root) == rd {
			other = rs
		}
		g.Merge(universe[root], universe[other])
		in.Op = ir.OpInvalid
		ps.Coalesced++
	}

	if ps.Coalesced == 0 {
		return ps, false
	}

	// Rewrite to representatives and drop the coalesced copies.
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Op == ir.OpInvalid {
				continue
			}
			if in.Op.HasDef() {
				in.Def = ir.VarID(uf.Find(int(in.Def)))
			}
			for ai := range in.Args {
				in.Args[ai] = ir.VarID(uf.Find(int(in.Args[ai])))
			}
			if in.Op == ir.OpCopy && in.Def == in.Args[0] {
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	if cum != nil {
		for v := range cum {
			cum[v] = ir.VarID(uf.Find(int(cum[v])))
		}
	}
	return ps, true
}

// Check validates that a universe mapping is internally consistent (used
// by tests and the verifier).
func Check(universe []int32, n int) error {
	seen := make([]bool, n)
	for v, u := range universe {
		if u < 0 {
			continue
		}
		if int(u) >= n {
			return fmt.Errorf("ifgraph: var %d maps to node %d >= %d", v, u, n)
		}
		if seen[u] {
			return fmt.Errorf("ifgraph: node %d mapped twice", u)
		}
		seen[u] = true
	}
	return nil
}
