// Package core implements the paper's primary contribution: copy
// coalescing and live-range identification during SSA-to-CFG conversion,
// without an interference graph (§3).
//
// The algorithm is optimistic: it assumes every φ-induced copy is
// unnecessary, unions all φ-node resources into congruence classes with
// union-find, and then re-inserts only the copies it cannot prove
// unnecessary. Interference is decided from liveness and dominance alone
// (Theorems 2.1/2.2): if two variables interfere, the definition of one
// dominates the definition of the other, and the dominated one's block
// sees the other in its live-in set (or they share a block). Within a
// class, the dominance forest (§3.2) reduces interference checking to
// parent/child edges (Lemma 3.1); pairs that are only live-range-adjacent
// inside one block are resolved by a backward walk over that block (§3.4).
//
// The four steps of §3:
//  1. union φ-node parameters with their φ names, filtering obviously
//     interfering parameters early (the five checks of §3.1);
//  2. build a dominance forest per class and find interferences along its
//     edges (Figure 2), splitting a member out of the class — which
//     reinstates copies — whenever an interference is certain;
//  3. resolve block-local interferences with one backward walk per block;
//  4. give each class a single name and rewrite the program, materializing
//     the pending copies (the Waiting array) as sequentialized parallel
//     copies at block ends (§3.6), which also handles the swap and virtual
//     swap problems.
//
// Steps 2 and 3 repeat until no class changes; splits only shrink classes,
// so the loop terminates. The repetition covers the "additional
// interferences identified at renaming time" of §3.6.1.
package core

import (
	"slices"
	"time"

	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/domforest"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/obs"
	"fastcoalesce/internal/reuse"
	"fastcoalesce/internal/ssa"
	"fastcoalesce/internal/unionfind"
)

// Options configures Coalesce. The zero value is the paper's algorithm.
type Options struct {
	// NoFilters disables the five early interference checks of §3.1
	// (ablation). The dominance-forest and local passes then discover all
	// interferences; the paper predicts more copies and more time.
	NoFilters bool

	// NaivePairwise replaces the dominance-forest walk with a quadratic
	// all-pairs check within each class (ablation for Lemma 3.1). Results
	// are identical; only the work differs.
	NaivePairwise bool

	// NoDepthWeight makes split decisions count copies instead of
	// weighting them by an estimated execution frequency of their
	// insertion block. The weighting is this implementation's instance of
	// the precision heuristics the paper leaves as future work (§5); it
	// mirrors the baseline coalescer's innermost-loops-first
	// profitability order.
	NoDepthWeight bool

	// Dom, when non-nil, is a dominator tree for the function's current
	// CFG, reused instead of recomputing (ssa.Build exposes one; the CFG
	// does not change between construction and destruction).
	Dom *dom.Tree

	// Trace, when non-nil, receives a line for each interference found
	// and each split/cut performed — a debugging aid.
	Trace func(string)

	// Obs, when non-nil, receives phase spans: dom and liveness from the
	// analyses the algorithm consumes, coalesce-union for step 1,
	// coalesce-forest and coalesce-local per step-2/3 round, and rewrite
	// for step 4. A nil tracer costs nothing (nil-receiver no-ops).
	Obs *obs.Tracer

	// RecordNameMap makes Coalesce publish the final SSA-name → output-name
	// mapping in Stats.NameMap, so an external auditor (internal/analysis)
	// can check every congruence class against an independently built
	// interference graph.
	RecordNameMap bool

	// NodeSplit resolves an interference by removing one whole member
	// from the class — the literal Figure 2 semantics ("insert copies
	// for c"), which reinstates a copy for every φ link the victim had.
	// The default instead cuts the cheapest φ links separating the two
	// interfering members (a minimal cut over the class's φ-link graph),
	// realizing §3.1's observation that "in general, only a single copy
	// is needed to break the interference" in steps 2 and 3 as well.
	NodeSplit bool
}

// Stats reports what Coalesce did.
type Stats struct {
	Phis           int    // φ-nodes processed
	PhiArgs        int    // φ arguments processed
	InitialUnions  int    // successful unions in step 1
	AlreadyJoined  int    // φ args already in the φ's class when reached
	FilterHits     [5]int // early-copy decisions per §3.1 check
	ForestSplits   int    // members split by the dominance-forest walk
	LocalSplits    int    // members split by the local (in-block) pass
	Rounds         int    // step-2/3 repetitions until stable
	Classes        int    // multi-member classes at the end
	ClassMembers   int    // members across those classes
	CopiesInserted int    // copies materialized in step 4 (incl. temps)
	TempsCreated   int    // cycle/terminator temporaries
	LivenessVisits int    // liveness solver work: explored (name, block) pairs (liveness.Stats.Visits)
	DomRecomputes  int    // dominator computations run here (0 if Options.Dom reused)

	// NameMap, filled when Options.RecordNameMap is set, maps every
	// SSA-form VarID present before rewriting to the name it carries in
	// the output; two SSA names were placed in one congruence class iff
	// they map to the same output name. Temporaries created during copy
	// sequentialization are not included (they have no SSA-form ancestor).
	NameMap []ir.VarID

	// AnalysisTime covers the dominator and liveness computations the
	// algorithm consumes (the paper assumes these exist, §3); AlgoTime is
	// the four steps themselves — the span of the O(n α(n)) bound.
	AnalysisTime time.Duration
	AlgoTime     time.Duration
}

// Scratch holds the reusable state of one Coalesce run: the liveness
// scratch (path exploration, whose per-block lists suit SSA form) and
// dominator scratch, the union-find forest, the per-variable indexes,
// and the class/rewrite buffers. A warm Scratch makes the steady-state
// conversion of same-sized functions allocation-free (copy
// materialization aside): every piece of per-run bookkeeping is a dense
// generation-stamped slice, so "clearing" between runs is a counter
// increment, not a sweep (see ARCHITECTURE.md, "The epoch-stamped
// scratch idiom").
//
// A Scratch belongs to one goroutine; the batch driver keeps one per
// worker. The zero value is ready to use. A Scratch must not be copied
// after first use, and the Stats returned by CoalesceScratch aliases it.
type Scratch struct {
	live   liveness.PathScratch
	dom    dom.Tree
	freq   dom.FreqScratch
	uf     unionfind.UF
	forest domforest.Forest

	co coalescer // the per-run pass state itself, embedded to avoid a per-run allocation
	st Stats

	defBlock []ir.BlockID
	defIdx   []int32
	isPhiDef []bool
	phis     []phiRec
	phiOfDef []int32
	argUses  [][]int32
	classOf  []int32
	members  [][]ir.VarID
	weight   []float64
	dirty    []bool

	// Step 1: the per-block claim table (check 4) as generation-stamped
	// per-variable slots, and the def-block occupancy of every union-find
	// root (check 5) as plain block lists with a stamped intersection
	// probe. occ[root] empty means the singleton {defBlock[root]}. Check
	// 5's other probe reads the φ-related names defined in each block
	// (relNames[relStart[b]:relStart[b+1]], bucketed from related, the same
	// names in discovery order); relCount[root] is how many of them its
	// class's blocks hold, valid while occ[root] is not empty.
	claimedBy  []int32
	claimedGen []uint32 // fc:stamp claimGen
	claimGen   uint32   // fc:epoch
	occ        [][]ir.BlockID
	blockMark  []uint32 // fc:stamp blockGen
	blockGen   uint32   // fc:epoch
	related    []ir.VarID
	relStart   []int32
	relNames   []ir.VarID
	relCount   []int32
	order      []int // step-1 φ-arg sort order

	// materializeClasses: per-root class size and class index.
	classSize   []int32
	classByRoot []int32

	// Steps 2/3: forest-walk DFS stack, the round's local-check pairs,
	// per-block pair buckets, and the last-use table as stamped slots.
	stack      []int
	pairs      []pair
	lpByBlock  [][]pair
	lpOrder    []ir.BlockID
	lastUse    []int32
	lastUseGen []uint32 // fc:stamp lastGen
	lastGen    uint32   // fc:epoch

	// cutLinks: the class's φ-link multigraph (links plus half-edge
	// adjacency in append order), Edmonds-Karp residuals, the stamped BFS
	// parent table, the BFS queue, and the split-off member buffer.
	links    []classLink
	halfNext []int32
	adjHead  []int32
	adjTail  []int32
	adjGen   []uint32 // fc:stamp adjCur
	adjCur   uint32   // fc:epoch
	capUV    []float64
	capVU    []float64
	via      []int32
	viaGen   []uint32 // fc:stamp cutGen
	cutGen   uint32   // fc:epoch
	bfsQueue []ir.VarID
	movedBuf []ir.VarID

	rep     []ir.VarID   // step-4 representative names
	waiting [][]ssa.Copy // step-4 staged copies per block

	// Closures created once per Scratch (they capture only &co, which is
	// stable), so the per-run hot paths never allocate a closure object.
	phiCmp func(x, y int) int
	tempFn func() ir.VarID
}

// Coalesce converts f out of SSA form in place, coalescing φ-induced
// copies. f must be in strict SSA form with critical edges already split
// (ssa.Build does both). After Coalesce, f contains no φ-nodes.
func Coalesce(f *ir.Func, opt Options) *Stats {
	return CoalesceScratch(f, opt, &Scratch{})
}

// CoalesceScratch is Coalesce reusing sc's memory. The results written to
// f are identical to Coalesce's; only the allocation behavior differs. sc
// must not be shared with a concurrent CoalesceScratch call.
func CoalesceScratch(f *ir.Func, opt Options, sc *Scratch) *Stats {
	t0 := time.Now()
	c := newCoalescer(f, opt, sc)
	t1 := time.Now()
	opt.Obs.Begin(obs.PhaseCoalesce1)
	c.unionPhiResources()  // step 1
	c.materializeClasses() //
	opt.Obs.End(obs.PhaseCoalesce1)
	c.resolveInterference() // steps 2 and 3, to fixpoint
	opt.Obs.Begin(obs.PhaseRewrite)
	c.rewrite() // step 4
	opt.Obs.End(obs.PhaseRewrite)
	// Slices that grew by append during the run flow back into sc.
	sc.phis, sc.members, sc.dirty = c.phis, c.members, c.dirty
	c.st.AnalysisTime = t1.Sub(t0)
	c.st.AlgoTime = time.Since(t1)
	return c.st
}

// phiRec locates one φ-node.
type phiRec struct {
	block ir.BlockID
	idx   int // index in the block's instruction list (φ prefix)
}

type coalescer struct {
	f    *ir.Func
	opt  Options
	st   *Stats
	sc   *Scratch
	dt   *dom.Tree
	live *liveness.ListInfo

	defBlock []ir.BlockID // defining block per var (NoBlock if undefined)
	defIdx   []int32      // instruction index of the definition
	isPhiDef []bool
	phis     []phiRec
	phiOfDef []int32   // var -> index into phis if the var is a φ def, else -1
	argUses  [][]int32 // var -> φs (indices into phis) using it as an argument

	uf      *unionfind.UF
	classOf []int32      // var -> class index, or -1 for singletons
	members [][]ir.VarID // class index -> members

	weight    []float64    // per block: estimated execution frequency
	dirty     []bool       // per class: needs (re-)walking this round
	sortPreds []ir.BlockID // predecessor list of the φ-block being sorted
}

func newCoalescer(f *ir.Func, opt Options, sc *Scratch) *coalescer {
	nv := f.NumVars()
	nb := len(f.Blocks)
	dt := opt.Dom
	domRecomputes := 0
	if dt == nil {
		opt.Obs.Begin(obs.PhaseDom)
		sc.dom.Recompute(f)
		dt = &sc.dom
		domRecomputes = 1
		opt.Obs.End(obs.PhaseDom)
	}
	sc.defBlock = reuse.Slice(sc.defBlock, nv)
	sc.defIdx = reuse.Slice(sc.defIdx, nv)
	sc.isPhiDef = reuse.Zeroed(sc.isPhiDef, nv)
	sc.phiOfDef = reuse.Slice(sc.phiOfDef, nv)
	sc.argUses = reuse.Truncated(sc.argUses, nv)
	sc.classOf = reuse.Slice(sc.classOf, nv)
	sc.uf.Reset(nv)
	// The generation-stamped tables need no clearing: a stale stamp was
	// written under a smaller generation and can never equal the current
	// one (growth zeroes fresh capacity; wraparound wipes the array).
	sc.claimedBy = reuse.Slice(sc.claimedBy, nv)
	sc.claimedGen = reuse.Slice(sc.claimedGen, nv)
	sc.occ = reuse.Truncated(sc.occ, nv)
	sc.blockMark = reuse.Slice(sc.blockMark, nb)
	sc.relCount = reuse.Slice(sc.relCount, nv)
	sc.lastUse = reuse.Slice(sc.lastUse, nv)
	sc.lastUseGen = reuse.Slice(sc.lastUseGen, nv)
	sc.adjHead = reuse.Slice(sc.adjHead, nv)
	sc.adjTail = reuse.Slice(sc.adjTail, nv)
	sc.adjGen = reuse.Slice(sc.adjGen, nv)
	sc.via = reuse.Slice(sc.via, nv)
	sc.viaGen = reuse.Slice(sc.viaGen, nv)
	sc.st = Stats{DomRecomputes: domRecomputes}
	opt.Obs.Begin(obs.PhaseLiveness)
	live := liveness.ComputePathsScratch(f, &sc.live)
	opt.Obs.End(obs.PhaseLiveness)
	sc.st.LivenessVisits = sc.live.LastStats().Visits
	c := &sc.co
	*c = coalescer{
		f:        f,
		opt:      opt,
		st:       &sc.st,
		sc:       sc,
		dt:       dt,
		live:     live,
		defBlock: sc.defBlock,
		defIdx:   sc.defIdx,
		isPhiDef: sc.isPhiDef,
		phis:     sc.phis[:0],
		phiOfDef: sc.phiOfDef,
		argUses:  sc.argUses,
		uf:       &sc.uf,
		classOf:  sc.classOf,
		members:  sc.members[:0],
		dirty:    sc.dirty,
	}
	for i := range c.defBlock {
		c.defBlock[i] = ir.NoBlock
		c.phiOfDef[i] = -1
		c.classOf[i] = -1
	}
	if opt.NoDepthWeight {
		sc.weight = reuse.Slice(sc.weight, nb)
		c.weight = sc.weight
		for i := range c.weight {
			c.weight[i] = 1
		}
	} else {
		c.weight = c.dt.EstimateFrequenciesInto(&sc.freq)
	}
	// A name is φ-related from its first φ def or φ argument on; related
	// lists each once.
	related := sc.related[:0]
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op.HasDef() {
				c.defBlock[in.Def] = b.ID
				c.defIdx[in.Def] = int32(i)
			}
			if in.Op == ir.OpPhi {
				pi := int32(len(c.phis))
				c.phis = append(c.phis, phiRec{block: b.ID, idx: i})
				if !c.isPhiDef[in.Def] && len(c.argUses[in.Def]) == 0 {
					related = append(related, in.Def)
				}
				c.isPhiDef[in.Def] = true
				c.phiOfDef[in.Def] = pi
				for _, a := range in.Args {
					if !c.isPhiDef[a] && len(c.argUses[a]) == 0 {
						related = append(related, a)
					}
					c.argUses[a] = append(c.argUses[a], pi)
				}
			}
		}
	}
	sc.related = related
	c.bucketPhiNames(related)
	return c
}

// bucketPhiNames lists the φ-related names — φ defs and φ arguments, the
// only names step 1 ever unions — by defining block, with a counting
// sort into sc.relStart/relNames.
func (c *coalescer) bucketPhiNames(related []ir.VarID) {
	sc := c.sc
	nb := len(c.f.Blocks)
	start := reuse.Zeroed(sc.relStart, nb+2)
	for _, v := range related {
		if b := c.defBlock[v]; b != ir.NoBlock {
			start[b+2]++
		}
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	names := reuse.Slice(sc.relNames, int(start[nb+1]))
	for _, v := range related {
		if b := c.defBlock[v]; b != ir.NoBlock {
			names[start[b+1]] = v
			start[b+1]++
		}
	}
	sc.relStart, sc.relNames = start[:nb+1], names
}

func (c *coalescer) phiInstr(pi int32) *ir.Instr {
	p := c.phis[pi]
	return &c.f.Blocks[p.block].Instrs[p.idx]
}

// occOf returns the def-block occupancy list for a union-find root,
// materializing the implicit singleton {defBlock[root]} on first touch.
// Lists are unsorted; merges concatenate them (members of a class have
// pairwise-distinct defining blocks, so no entry ever repeats).
func (c *coalescer) occOf(root int) []ir.BlockID {
	if len(c.sc.occ[root]) == 0 {
		c.sc.occ[root] = append(c.sc.occ[root], c.defBlock[root])
	}
	return c.sc.occ[root]
}

func blockListHas(occ []ir.BlockID, b ir.BlockID) bool {
	for _, x := range occ {
		if x == b {
			return true
		}
	}
	return false
}

// unionPhiResources is step 1 (§3.1): union every φ name with its
// parameters, filtering parameters that obviously interfere. A parameter
// that is filtered simply stays out of the class; step 4 then inserts the
// copy for it. The five checks, in order:
//
//  1. ai is in the live-in set of the φ's block;
//  2. the φ name is in the live-out set of ai's defining block;
//  3. ai is itself a φ def and the φ name is live-in to ai's block;
//  4. ai was already claimed by another φ-node of the current block;
//  5. ai's defining block is already occupied by another member of the
//     class (which also keeps Definition 3.1 satisfiable).
//
// fc:hotpath
func (c *coalescer) unionPhiResources() {
	sc := c.sc
	if sc.phiCmp == nil {
		sc.phiCmp = sc.co.phiArgCmp // fc:lint-ok once per Scratch, captures only &co
	}
	curBlock := ir.NoBlock
	for pi := range c.phis {
		rec := c.phis[pi]
		if rec.block != curBlock {
			// Entering a new φ-block: "clear" the claim table by moving to
			// a fresh generation.
			curBlock = rec.block
			sc.claimGen++
			if sc.claimGen == 0 { // wraparound: ancient stamps could collide
				clear(sc.claimedGen[:cap(sc.claimedGen)])
				sc.claimGen = 1
			}
		}
		in := c.phiInstr(int32(pi))
		d := in.Def
		c.st.Phis++
		// Union the hottest incoming edge first: when two φs compete for
		// a name (check 4) or a def-block slot (check 5), the frequent
		// edge should win the free coalesce and the copy should land on
		// the cold edge.
		order := reuse.Slice(sc.order, len(in.Args))
		sc.order = order
		for i := range order {
			order[i] = i
		}
		c.sortPreds = c.f.Blocks[rec.block].Preds
		slices.SortStableFunc(order, sc.phiCmp)
		for _, ai := range order {
			a := in.Args[ai]
			c.st.PhiArgs++
			rd, ra := c.uf.Find(int(d)), c.uf.Find(int(a))
			if rd == ra {
				c.st.AlreadyJoined++
				continue
			}
			filter := -1
			if !c.opt.NoFilters {
				switch {
				case c.live.LiveIn(rec.block, a):
					filter = 0
				case c.live.LiveOut(c.defBlock[a], d):
					filter = 1
				case c.isPhiDef[a] && c.live.LiveIn(c.defBlock[a], d):
					filter = 2
				default:
					if sc.claimedGen[a] == sc.claimGen && sc.claimedBy[a] != int32(pi) {
						filter = 3
					}
				}
			}
			if filter < 0 && c.defBlockConflict(rd, ra) {
				filter = 4
			}
			if filter >= 0 {
				c.st.FilterHits[filter]++
				continue
			}
			c.mergeClasses(rd, ra)
			sc.claimedBy[a] = int32(pi)
			sc.claimedGen[a] = sc.claimGen
			c.st.InitialUnions++
		}
	}
}

// phiArgCmp orders the φ-argument indices of the current φ (whose
// predecessor list is c.sortPreds) by decreasing edge weight; the stable
// sort keeps argument order within equal weights.
func (c *coalescer) phiArgCmp(x, y int) int {
	wx, wy := c.weight[c.sortPreds[x]], c.weight[c.sortPreds[y]]
	switch {
	case wx > wy:
		return -1
	case wx < wy:
		return 1
	}
	return 0
}

// defBlockConflict reports whether the classes rooted at r1 and r2 both
// contain a variable defined in some common block (check 5). An empty
// occupancy list stands for the singleton {defBlock[root]}. Two probes
// give the same answer, and each call takes the one that examines fewer
// entries:
//   - scan the occupancy lists (scanConflict);
//   - walk the blocks of one class, look up the φ-related names each
//     defines, and ask whether one belongs to the other class
//     (lookupConflict). A class holds only φ-related names, each
//     defined in a block of its own, so this finds exactly the shared
//     blocks.
//
// The scan costs the two lists' lengths, the lookup its class's blocks
// plus their φ-related names, so once one class has grown long (an
// irreducible ladder's φ web) the lookup keeps the check linear in the
// smaller class.
func (c *coalescer) defBlockConflict(r1, r2 int) bool {
	sc := c.sc
	o1, o2 := sc.occ[r1], sc.occ[r2]
	if len(o1) == 0 && len(o2) == 0 {
		return c.defBlock[r1] == c.defBlock[r2]
	}
	from, to := r1, r2
	look := c.lookupCost(r1)
	if w := c.lookupCost(r2); w < look {
		from, to, look = r2, r1, w
	}
	var got bool
	if int(look) < len(o1)+len(o2) {
		got = c.lookupConflict(from, to)
	} else {
		got = c.scanConflict(r1, r2)
	}
	if conflictHook != nil {
		conflictHook(c, r1, r2, got)
	}
	return got
}

// conflictHook, when set, sees every two-probe answer of check 5. Tests
// set it to compare the answer with scanConflict's.
var conflictHook func(c *coalescer, r1, r2 int, got bool)

// lookupCost is how many entries lookupConflict examines from root's
// side: each block of root's class and the φ-related names it defines.
func (c *coalescer) lookupCost(root int) int32 {
	return int32(max(len(c.sc.occ[root]), 1)) + c.classRelCount(root)
}

// classRelCount is how many φ-related names the blocks of root's class
// define.
func (c *coalescer) classRelCount(root int) int32 {
	sc := c.sc
	if len(sc.occ[root]) > 0 {
		return sc.relCount[root]
	}
	b := c.defBlock[root]
	return sc.relStart[b+1] - sc.relStart[b]
}

// lookupConflict reports whether a block of from's class defines a
// member of to's class.
func (c *coalescer) lookupConflict(from, to int) bool {
	occ := c.sc.occ[from]
	if len(occ) == 0 {
		return c.definesMember(c.defBlock[from], to)
	}
	for _, b := range occ {
		if c.definesMember(b, to) {
			return true
		}
	}
	return false
}

// definesMember reports whether block b defines a member of the class
// rooted at root.
func (c *coalescer) definesMember(b ir.BlockID, root int) bool {
	sc := c.sc
	for _, v := range sc.relNames[sc.relStart[b]:sc.relStart[b+1]] {
		if c.uf.Find(int(v)) == root {
			return true
		}
	}
	return false
}

// scanConflict answers defBlockConflict from the occupancy lists. The
// two-list case stamps the smaller list's blocks with a fresh generation
// and probes the larger, with no clearing.
func (c *coalescer) scanConflict(r1, r2 int) bool {
	sc := c.sc
	o1, o2 := sc.occ[r1], sc.occ[r2]
	switch {
	case len(o1) == 0 && len(o2) == 0:
		return c.defBlock[r1] == c.defBlock[r2]
	case len(o1) == 0:
		return blockListHas(o2, c.defBlock[r1])
	case len(o2) == 0:
		return blockListHas(o1, c.defBlock[r2])
	}
	if len(o1) > len(o2) {
		o1, o2 = o2, o1
	}
	sc.blockGen++
	if sc.blockGen == 0 {
		clear(sc.blockMark[:cap(sc.blockMark)])
		sc.blockGen = 1
	}
	g := sc.blockGen
	for _, b := range o1 {
		sc.blockMark[b] = g
	}
	for _, b := range o2 {
		if sc.blockMark[b] == g {
			return true
		}
	}
	return false
}

func (c *coalescer) mergeClasses(r1, r2 int) {
	sc := c.sc
	rel := c.classRelCount(r1) + c.classRelCount(r2)
	o1, o2 := c.occOf(r1), c.occOf(r2)
	root, _ := c.uf.Union(r1, r2)
	sc.relCount[root] = rel
	loser := r1 + r2 - root
	if len(o1) < len(o2) {
		o1, o2 = o2, o1
	}
	// The merged list takes the larger backing; the loser keeps the other
	// (smaller) backing truncated, so the two slots never alias even when
	// the loser root is revisited by a later run of the same Scratch.
	sc.occ[root] = append(o1, o2...)
	sc.occ[loser] = o2[:0]
}

// materializeClasses converts union-find sets into explicit member lists;
// splitting (removing one member) is then a constant-time class change.
// Classes are numbered in variable order, keeping the pass deterministic.
func (c *coalescer) materializeClasses() {
	nv := c.f.NumVars()
	size := reuse.Zeroed(c.sc.classSize, nv) // indexed by root (roots are variable IDs)
	c.sc.classSize = size
	for v := 0; v < nv; v++ {
		size[c.uf.Find(v)]++
	}
	byRoot := reuse.Slice(c.sc.classByRoot, nv)
	c.sc.classByRoot = byRoot
	for i := range byRoot {
		byRoot[i] = -1
	}
	for v := 0; v < nv; v++ {
		root := c.uf.Find(v)
		if size[root] < 2 {
			continue // singleton
		}
		k := byRoot[root]
		if k < 0 {
			k = c.newClass()
			byRoot[root] = k
		}
		c.classOf[v] = k
		c.members[k] = append(c.members[k], ir.VarID(v))
	}
}

// newClass appends an empty class and returns its index, regrowing into
// retained capacity so a reused Scratch keeps the member slices' backing.
func (c *coalescer) newClass() int32 {
	k := int32(len(c.members))
	if cap(c.members) > len(c.members) {
		c.members = c.members[:k+1]
		c.members[k] = c.members[k][:0]
	} else {
		c.members = append(c.members, nil)
	}
	return k
}

// sameClass reports whether u and v share a congruence class.
func (c *coalescer) sameClass(u, v ir.VarID) bool {
	if u == v {
		return true
	}
	k := c.classOf[u]
	return k >= 0 && k == c.classOf[v]
}

// split removes v from its class, making it a singleton; the copies it
// needs come back in step 4.
func (c *coalescer) split(v ir.VarID) {
	k := c.classOf[v]
	ms := c.members[k]
	for i, m := range ms {
		if m == v {
			c.members[k] = append(ms[:i], ms[i+1:]...)
			break
		}
	}
	c.classOf[v] = -1
}

// splitCost estimates the copies splitting v out of its class would
// reinstate: one per φ linking v to a same-class partner (§3.3 "fewer
// copies to insert"), weighted by the loop depth of the block each copy
// would land in (unless Options.NoDepthWeight).
func (c *coalescer) splitCost(v ir.VarID) float64 {
	n := 0.0
	if pi := c.phiOfDef[v]; pi >= 0 {
		in := c.phiInstr(pi)
		preds := c.f.Blocks[c.phis[pi].block].Preds
		for i, a := range in.Args {
			if a != v && c.sameClass(v, a) {
				n += c.weight[preds[i]]
			}
		}
	}
	for _, pi := range c.argUses[v] {
		in := c.phiInstr(pi)
		if in.Def == v || !c.sameClass(v, in.Def) {
			continue
		}
		preds := c.f.Blocks[c.phis[pi].block].Preds
		for i, a := range in.Args {
			if a == v {
				n += c.weight[preds[i]]
			}
		}
	}
	return n
}
