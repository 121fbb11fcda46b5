// Package ifgraph implements the classical interference-graph approach to
// copy coalescing that the paper uses as its baseline (§4): a Chaitin-style
// graph held in a triangular bit matrix plus adjacency lists, and the
// Chaitin/Briggs build/coalesce loop. It provides both the original
// formulation ("Briggs": the matrix covers every live-range name in the
// code) and the paper's §4.1 improvement ("Briggs*": while the loop is
// iterating, the matrix covers only names involved in copies, reached
// through a compact mapping array) — identical results, orders of
// magnitude less matrix memory. Each pass solves and walks liveness over
// its graph's names only, on memory a Scratch keeps across passes and
// functions.
package ifgraph

import (
	"math/bits"

	"fastcoalesce/internal/bitset"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/reuse"
)

// Graph is an undirected interference graph over a dense node namespace,
// stored as a triangular bit matrix plus adjacency lists. The lists share
// one flat buffer of half-edges: an edge i–j is one half-edge in i's list
// and one in j's, each list threaded newest first from head through next,
// so a reused graph keeps the whole buffer however node degrees change.
type Graph struct {
	n      int
	matrix bitset.Set
	head   []int32    // per node: its newest half-edge, or -1
	halves []halfEdge // every list's half-edges, in insertion order

	// MatrixBytes and AdjBytes account the memory this graph allocated,
	// for the Table 1 comparison.
	MatrixBytes int64
	AdjBytes    int64
}

// halfEdge is one end of an edge: the neighbour it leads to and the
// node's next older half-edge, or -1.
type halfEdge struct {
	to, next int32
}

// NewGraph returns an empty graph over n nodes.
func NewGraph(n int) *Graph {
	g := &Graph{}
	g.reset(n)
	return g
}

// reset empties g and resizes it to n nodes, reusing its matrix and
// adjacency memory. MatrixBytes is the n-node matrix's size whatever
// capacity stands behind it, so a reused graph accounts exactly as a
// fresh one.
func (g *Graph) reset(n int) {
	g.n = n
	g.matrix = reuse.Zeroed(g.matrix, (n*(n-1)/2+63)/64)
	g.head = reuse.Slice(g.head, n)
	for i := range g.head {
		g.head[i] = -1
	}
	g.halves = g.halves[:0]
	g.MatrixBytes = int64(len(g.matrix) * 8)
	g.AdjBytes = 0
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

func triIndex(i, j int32) int {
	if i < j {
		i, j = j, i
	}
	return int(i)*(int(i)-1)/2 + int(j)
}

// AddEdge records that i and j interfere.
func (g *Graph) AddEdge(i, j int32) {
	if i == j {
		return
	}
	idx := triIndex(i, j)
	if g.matrix.Has(idx) {
		return
	}
	g.matrix.Add(idx)
	g.halves = append(g.halves, halfEdge{to: j, next: g.head[i]}, halfEdge{to: i, next: g.head[j]})
	h := int32(len(g.halves))
	g.head[i], g.head[j] = h-2, h-1
	g.AdjBytes += 8
}

// Interfere reports whether i and j interfere.
func (g *Graph) Interfere(i, j int32) bool {
	if i == j {
		return false
	}
	return g.matrix.Has(triIndex(i, j))
}

// Neighbors returns the nodes adjacent to i, newest edge first, in a
// fresh slice.
func (g *Graph) Neighbors(i int32) []int32 {
	var ns []int32
	for h := g.head[i]; h >= 0; h = g.halves[h].next {
		ns = append(ns, g.halves[h].to)
	}
	return ns
}

// Merge folds node j into node i: afterwards i interferes with everything
// j interfered with. Used when a copy i=j is coalesced mid-pass so that
// later decisions in the same pass stay conservative (Chaitin's in-place
// update; the loop rebuilds the graph afterwards for precision). The
// edges it adds join i's and their other ends' lists, never j's, so the
// walk over j's list sees exactly the edges j had.
func (g *Graph) Merge(i, j int32) {
	for h := g.head[j]; h >= 0; h = g.halves[h].next {
		if k := g.halves[h].to; k != i {
			g.AddEdge(i, k)
		}
	}
}

// Degree returns the current degree of node i.
func (g *Graph) Degree(i int32) int {
	d := 0
	for h := g.head[i]; h >= 0; h = g.halves[h].next {
		d++
	}
	return d
}

// Visit adds an edge between d and every node in across. It makes
// *Graph the Visitor through which Interferences fills a graph.
//
// fc:hotpath
func (g *Graph) Visit(d int32, across bitset.Set) {
	for wi, w := range across {
		for ; w != 0; w &= w - 1 {
			g.AddEdge(d, int32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
}

// BuildOptions selects the node namespace for Build.
type BuildOptions struct {
	// Universe maps each variable to its dense node index, or -1 for
	// variables outside the graph (Briggs* restricts the universe to
	// copy-involved names). If nil, every variable is a node, indexed by
	// its VarID.
	Universe []int32
	// N is the node count when Universe is non-nil.
	N int
}

// Build constructs the interference graph of f over the namespace opt
// selects: an edge joins every pair Interferences visits. f must contain
// no φ-nodes (destruction first). The build/coalesce loop fills a
// reused graph through the same walk instead.
func Build(f *ir.Func, live *liveness.Info, opt BuildOptions) *Graph {
	n := opt.N
	if opt.Universe == nil {
		n = f.NumVars()
	}
	g := NewGraph(n)
	Interferences(f, live, opt.Universe, bitset.New(n), g)
	return g
}

// A Visitor receives Interferences' walk.
type Visitor interface {
	// Visit is called at each definition of node d with the set of nodes
	// live across it. across aliases the walk's live set and is valid
	// only during the call; Visit must not modify it.
	Visit(d int32, across bitset.Set)
}

// Interferences is the one definition of the interference relation,
// Chaitin's backward walk over each block from its live-out set: at each
// definition d, v.Visit(d, across) receives the names live across it, and
// d interferes with exactly those. A copy's source is left out of its
// destination's set, which is what makes coalescing copies possible at
// all. A dead definition still gets its visit (it occupies a register at
// the definition point).
//
// The walk runs over nodes: node[x] is name x's node, or -1 for a name
// the walk ignores (no visit, never in across), and a nil node makes
// every name its own node. live only needs to answer for the names that
// are nodes, so the build/coalesce loop hands it liveness restricted to
// its graph's names (liveness.ComputeKeptScratch).
//
// cur is the walk's live set and must hold a bit for every node; its
// contents on entry are ignored. f must contain no φ-nodes.
//
// fc:hotpath
func Interferences(f *ir.Func, live *liveness.Info, node []int32, cur bitset.Set, v Visitor) {
	for _, b := range f.Blocks {
		cur.Clear()
		it := live.LiveOutNames(b.ID)
		for x, ok := it.Next(); ok; x, ok = it.Next() {
			if n := nodeOf(node, x); n >= 0 {
				cur.Add(int(n))
			}
		}
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if in.Op == ir.OpPhi {
				panic("ifgraph: interference walk requires φ-free code")
			}
			if in.Op.HasDef() {
				d := nodeOf(node, in.Def)
				if d >= 0 {
					cur.Remove(int(d))
				}
				if in.Op == ir.OpCopy {
					if s := nodeOf(node, in.Args[0]); s >= 0 {
						cur.Remove(int(s))
					}
				}
				if d >= 0 {
					v.Visit(d, cur)
				}
			}
			for _, a := range in.Args {
				if n := nodeOf(node, a); n >= 0 {
					cur.Add(int(n))
				}
			}
		}
	}
}

// nodeOf returns x's node under the map node (nil: the identity).
func nodeOf(node []int32, x ir.VarID) int32 {
	if node == nil {
		return int32(x)
	}
	return node[x]
}
