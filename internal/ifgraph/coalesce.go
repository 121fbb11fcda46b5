package ifgraph

import (
	"cmp"
	"slices"

	"fastcoalesce/internal/bitset"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/reuse"
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
	return JoinPhiWebsScratch(f, nil)
}

// JoinPhiWebsScratch is JoinPhiWebs on sc's union-find and name map, so
// a warm Scratch joins a function without allocating. The returned map
// aliases sc and is invalidated by the next JoinPhiWebsScratch call with
// the same Scratch; CoalesceScratch leaves it intact. A nil sc
// allocates cold.
//
// fc:hotpath
func JoinPhiWebsScratch(f *ir.Func, sc *Scratch) []ir.VarID {
	if sc == nil {
		sc = &Scratch{}
	}
	uf := &sc.uf
	uf.Reset(f.NumVars())
	for _, b := range f.Blocks {
		for i := 0; i < b.NumPhis(); i++ {
			in := &b.Instrs[i]
			for _, a := range in.Args {
				uf.Union(int(in.Def), int(a))
			}
		}
	}
	rep := reuse.Slice(sc.rep, f.NumVars())
	sc.rep = rep
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

	// RecordNameMap makes Coalesce publish the cumulative input-name →
	// output-name mapping in CoalesceStats.NameMap for external auditing.
	RecordNameMap bool
}

// Scratch holds the reusable state of the φ-web join and the
// build/coalesce loop: the liveness scratch, the node universe, the copy
// list, the union-find forest (the join's, then each pass's), the join's
// name map, the graph's matrix and adjacency lists, the walk's live set,
// and the statistics CoalesceScratch returns. The zero value is ready to
// use; once warm, a pass allocates only where a function outgrows every
// earlier one. A Scratch belongs to one goroutine; the batch driver
// keeps one per worker.
type Scratch struct {
	live     liveness.Scratch
	universe []int32
	copies   []copySite
	uf       unionfind.UF
	rep      []ir.VarID
	graph    Graph
	cur      bitset.Set
	st       CoalesceStats
}

// Coalesce runs the Chaitin/Briggs build/coalesce loop on φ-free code:
// build the interference graph, coalesce every copy whose source and
// destination do not interfere (merging their nodes in place so later
// decisions in the pass stay conservative), rewrite, and repeat until a
// pass coalesces nothing. It returns per-pass statistics.
func Coalesce(f *ir.Func, opt Options) *CoalesceStats {
	return CoalesceScratch(f, opt, nil)
}

// CoalesceScratch is Coalesce reusing sc's memory. f ends up exactly as
// Coalesce leaves it and the statistics are equal, but the returned
// stats and their Passes alias sc and are invalidated by the next call
// with the same Scratch (NameMap is freshly allocated). A nil sc
// allocates cold.
//
// fc:hotpath
func CoalesceScratch(f *ir.Func, opt Options, sc *Scratch) *CoalesceStats {
	if sc == nil {
		sc = &Scratch{}
	}
	cs := &sc.st
	*cs = CoalesceStats{Passes: cs.Passes[:0]}
	if opt.RecordNameMap {
		cs.NameMap = make([]ir.VarID, f.NumVars())
		for v := range cs.NameMap {
			cs.NameMap[v] = ir.VarID(v)
		}
	}
	for {
		ps, changed := coalescePass(f, opt, cs.NameMap, sc)
		cs.Passes = append(cs.Passes, ps)
		cs.CopiesCoalesced += ps.Coalesced
		if !changed {
			break
		}
	}
	return cs
}

type copySite struct {
	block ir.BlockID
	idx   int
	depth int32
}

// coalescePass runs one build/coalesce iteration on sc's memory. When
// cum is non-nil it is updated in place: each entry is advanced through
// this pass's union-find, composing the cross-pass name mapping.
//
// fc:hotpath
func coalescePass(f *ir.Func, opt Options, cum []ir.VarID, sc *Scratch) (PassStats, bool) {
	ps := PassStats{}
	nv := f.NumVars()

	// Gather copies and the node universe.
	universe := reuse.Slice(sc.universe, nv)
	for i := range universe {
		universe[i] = -1
	}
	copies := sc.copies[:0]
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpCopy {
				var d int32
				if opt.Depth != nil {
					d = opt.Depth[b.ID]
				}
				copies = append(copies, copySite{block: b.ID, idx: i, depth: d})
				ps.Nodes = addNode(universe, ps.Nodes, in.Def)
				ps.Nodes = addNode(universe, ps.Nodes, in.Args[0])
			} else if !opt.Improved {
				// Original Briggs: every name in the code is a node.
				if in.Op.HasDef() {
					ps.Nodes = addNode(universe, ps.Nodes, in.Def)
				}
				for _, a := range in.Args {
					ps.Nodes = addNode(universe, ps.Nodes, a)
				}
			}
		}
	}
	sc.universe, sc.copies = universe, copies
	if len(copies) == 0 {
		return ps, false
	}

	// Liveness and the walk cover the graph's nodes only: the matrix
	// reads nothing else.
	live := liveness.ComputeKeptScratch(f, universe, &sc.live)
	g := &sc.graph
	g.reset(ps.Nodes)
	sc.cur = reuse.Slice(sc.cur, (ps.Nodes+63)/64)
	Interferences(f, live, universe, sc.cur, g)
	ps.MatrixBytes = g.MatrixBytes
	ps.AdjBytes = g.AdjBytes

	// Deepest loops first; stable within a depth to stay deterministic.
	if opt.Depth != nil {
		slices.SortStableFunc(copies, func(a, b copySite) int { return cmp.Compare(b.depth, a.depth) })
	}

	uf := &sc.uf
	uf.Reset(nv)
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
	for v := range cum {
		cum[v] = ir.VarID(uf.Find(int(cum[v])))
	}
	return ps, true
}

// addNode makes v a graph node numbered next, unless it already is one,
// and returns the next free node number.
func addNode(universe []int32, next int, v ir.VarID) int {
	if universe[v] < 0 {
		universe[v] = int32(next)
		next++
	}
	return next
}
