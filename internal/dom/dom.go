// Package dom computes dominator information for an ir.Func: immediate
// dominators (the Cooper-Harvey-Kennedy iterative algorithm; SEMI-NCA is
// kept as the tests' differential oracle), the dominator tree with
// Tarjan-style preorder/max-preorder numbering for O(1) ancestry
// queries, dominance frontiers (Cytron et al.), and natural-loop nesting
// depths.
//
// The preorder/max-preorder numbering is the "done only once for the whole
// SSA" preprocessing step of the paper's dominance-forest construction
// (Figure 1): block A strictly dominates block B exactly when
// pre(A) < pre(B) <= maxpre(A).
//
// Concurrency: a Tree is immutable after New/Recompute and safe for
// concurrent readers, but Recompute mutates in place — a Tree being
// recomputed must be owned by one goroutine. Recompute is the
// Scratch-reuse hook: batch workers keep one Tree per worker and
// recompute it per function, reusing all of its slices.
package dom

import (
	"sync/atomic"

	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/reuse"
)

// Solver names an immediate-dominator algorithm for RecomputeWith. Both
// produce identical output (the immediate dominators of a CFG are
// unique), so everything derived — Children, Pre/MaxPre, frontiers — is
// byte-identical regardless of the choice; only the cost model differs.
// Production code calls Recompute, which runs CHK.
type Solver uint8

const (
	// CHK is the Cooper-Harvey-Kennedy iterative solver: reverse-postorder
	// sweeps with an intersect ladder. O(n²) in the worst case but very low
	// constants, and typically 1–2 sweeps on reducible CFGs.
	CHK Solver = iota
	// SemiNCA computes semidominators with Lengauer-Tarjan path-compressed
	// link-eval over a DSU ancestor forest, then recovers immediate
	// dominators with the SEMI-NCA ascending-path walk. Near-linear and
	// insensitive to irreducibility; the tests check CHK against it.
	SemiNCA
)

// recomputes counts dominator (re)computations process-wide.
var recomputes atomic.Int64

// RecomputeCount returns how many dominator computations this process has
// performed — a test hook guarding against pipelines recomputing a tree
// they could reuse (SSA construction already publishes one via
// ssa.Stats.Dom).
func RecomputeCount() int64 { return recomputes.Load() }

// Tree holds dominator information for a function whose blocks are all
// reachable from the entry (run ir.Func.RemoveUnreachable first).
type Tree struct {
	f *ir.Func

	// Idom[b] is the immediate dominator of block b; the entry block's
	// Idom is ir.NoBlock.
	Idom []ir.BlockID

	// Children[b] lists the blocks immediately dominated by b.
	Children [][]ir.BlockID

	// Pre[b] and MaxPre[b] are the dominator-tree preorder number of b and
	// the largest preorder number among b's dominator-tree descendants.
	Pre    []int32
	MaxPre []int32

	// RPO is a reverse postorder over the CFG; RPONum[b] is b's position.
	RPO    []ir.BlockID
	RPONum []int32

	// Reusable DFS state (see Recompute).
	state  []uint8
	frames []dfsFrame

	// SEMI-NCA scratch (see snca.go). All slices are in DFS-preorder
	// space except sncaDfn/sncaSeen, which are indexed by block. The seen
	// marks use the generation-stamp idiom: a block's dfn is valid only
	// while its stamp equals the current generation, so reruns skip the
	// O(n) clear of the visited array.
	sncaVertex []ir.BlockID // preorder number -> block
	sncaDfn    []int32      // block -> preorder number (valid iff stamped)
	sncaSeen   []uint32     // fc:stamp sncaGen
	sncaGen    uint32       // fc:epoch
	sncaParent []int32      // DFS-tree parent, preorder space
	sncaSemi   []int32      // semidominator, preorder space
	sncaIdom   []int32      // immediate dominator, preorder space
	sncaAnc    []int32      // DSU ancestor forest (-1 = root of its tree)
	sncaLabel  []int32      // min-semi representative on the path to the root
	sncaPath   []int32      // eval's compression stack
}

type dfsFrame struct {
	b ir.BlockID
	i int
}

// New computes the dominator tree of f.
func New(f *ir.Func) *Tree {
	t := &Tree{}
	t.Recompute(f)
	return t
}

// Recompute rebuilds the dominator information for f in place with the
// CHK solver, reusing t's slices — the Scratch-reuse hook for batch
// compilation. A zero Tree is valid input. Results previously read from
// t are invalidated.
func (t *Tree) Recompute(f *ir.Func) {
	t.RecomputeWith(f, CHK)
}

// RecomputeWith is Recompute with an explicit solver. The output is
// identical for every solver; see Solver.
func (t *Tree) RecomputeWith(f *ir.Func, solver Solver) {
	recomputes.Add(1)
	n := len(f.Blocks)
	t.f = f
	t.Idom = reuse.Slice(t.Idom, n)
	// Pre/MaxPre/RPONum are zeroed, not just resized: only reachable
	// blocks are rewritten below, and FindLoops queries Dominates on every
	// block — stale numbers on unreachable blocks would fabricate edges.
	t.Pre = reuse.Zeroed(t.Pre, n)
	t.MaxPre = reuse.Zeroed(t.MaxPre, n)
	t.RPONum = reuse.Zeroed(t.RPONum, n)
	if solver == SemiNCA {
		t.sncaDFS()
		t.computeIdomSNCA()
	} else {
		t.computeRPO()
		t.computeIdom()
	}
	t.buildTree()
}

// computeRPO fills RPO/RPONum with an iterative postorder DFS, reversed.
func (t *Tree) computeRPO() {
	f := t.f
	n := len(f.Blocks)
	post := reuse.Slice(t.RPO, n)[:0]
	state := reuse.Zeroed(t.state, n) // 0 unvisited, 1 on stack, 2 done
	stack := append(t.frames[:0], dfsFrame{f.Entry, 0})
	state[f.Entry] = 1
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		succs := f.Blocks[fr.b].Succs
		if fr.i < len(succs) {
			s := succs[fr.i]
			fr.i++
			if state[s] == 0 {
				state[s] = 1
				stack = append(stack, dfsFrame{s, 0})
			}
			continue
		}
		state[fr.b] = 2
		post = append(post, fr.b)
		stack = stack[:len(stack)-1]
	}
	t.state, t.frames = state, stack[:0]
	// Reverse in place: post and t.RPO share backing.
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	t.RPO = post
	for i, b := range t.RPO {
		t.RPONum[b] = int32(i)
	}
}

// computeIdom runs the Cooper-Harvey-Kennedy "engineered" iterative
// dominator algorithm over reverse postorder.
func (t *Tree) computeIdom() {
	f := t.f
	for i := range t.Idom {
		t.Idom[i] = ir.NoBlock
	}
	t.Idom[f.Entry] = f.Entry // temporary self-loop simplifies intersect
	changed := true
	for changed {
		changed = false
		for _, b := range t.RPO {
			if b == f.Entry {
				continue
			}
			var newIdom ir.BlockID = ir.NoBlock
			for _, p := range f.Blocks[b].Preds {
				if t.Idom[p] == ir.NoBlock {
					continue // unprocessed this round
				}
				if newIdom == ir.NoBlock {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom != ir.NoBlock && t.Idom[b] != newIdom {
				t.Idom[b] = newIdom
				changed = true
			}
		}
	}
	t.Idom[f.Entry] = ir.NoBlock
}

func (t *Tree) intersect(a, b ir.BlockID) ir.BlockID {
	for a != b {
		for t.RPONum[a] > t.RPONum[b] {
			a = t.Idom[a]
		}
		for t.RPONum[b] > t.RPONum[a] {
			b = t.Idom[b]
		}
	}
	return a
}

// buildTree fills Children and the preorder/max-preorder numbering.
func (t *Tree) buildTree() {
	f := t.f
	n := len(f.Blocks)
	t.Children = reuse.Truncated(t.Children, n)
	for b := 0; b < n; b++ {
		id := t.Idom[b]
		if id != ir.NoBlock {
			t.Children[id] = append(t.Children[id], ir.BlockID(b))
		}
	}
	// Iterative preorder DFS over the dominator tree. MaxPre is computed
	// on the way back up (Tarjan's trick from the paper's Figure 1).
	var next int32
	stack := append(t.frames[:0], dfsFrame{f.Entry, 0})
	t.Pre[f.Entry] = next
	next++
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		kids := t.Children[fr.b]
		if fr.i < len(kids) {
			c := kids[fr.i]
			fr.i++
			t.Pre[c] = next
			next++
			stack = append(stack, dfsFrame{c, 0})
			continue
		}
		t.MaxPre[fr.b] = next - 1
		stack = stack[:len(stack)-1]
	}
	t.frames = stack[:0]
}

// Dominates reports whether a dominates b (reflexively).
func (t *Tree) Dominates(a, b ir.BlockID) bool {
	return t.Pre[a] <= t.Pre[b] && t.Pre[b] <= t.MaxPre[a]
}

// StrictlyDominates reports whether a dominates b and a != b.
func (t *Tree) StrictlyDominates(a, b ir.BlockID) bool {
	return a != b && t.Dominates(a, b)
}

// Frontiers computes the dominance frontier of every block using the
// Cytron et al. two-predecessor walk.
func (t *Tree) Frontiers() [][]ir.BlockID {
	df, _ := t.FrontiersInto(nil, nil)
	return df
}

// FrontiersInto is Frontiers reusing caller-provided buffers (both may be
// nil or from a previous call); it returns them for the next reuse.
func (t *Tree) FrontiersInto(df [][]ir.BlockID, inDF []ir.BlockID) ([][]ir.BlockID, []ir.BlockID) {
	f := t.f
	n := len(f.Blocks)
	df = reuse.Truncated(df, n)
	inDF = reuse.Slice(inDF, n) // last block added to df[x], to dedupe
	for i := range inDF {
		inDF[i] = ir.NoBlock
	}
	for b := 0; b < n; b++ {
		blk := f.Blocks[b]
		if len(blk.Preds) < 2 {
			continue
		}
		for _, p := range blk.Preds {
			runner := p
			for runner != t.Idom[ir.BlockID(b)] && runner != ir.NoBlock {
				if inDF[runner] != ir.BlockID(b) {
					inDF[runner] = ir.BlockID(b)
					df[runner] = append(df[runner], ir.BlockID(b))
				}
				runner = t.Idom[runner]
			}
		}
	}
	return df, inDF
}
