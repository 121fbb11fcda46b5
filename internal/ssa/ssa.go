// Package ssa converts IR functions into static single assignment form
// (Cytron et al.) and back out. Construction supports the three flavors
// discussed in the paper (§3) — minimal, semi-pruned, and pruned — and can
// fold copies during renaming, which is the step that makes φ-node
// instantiation interesting: folding deletes every copy in the program and
// transfers the moves into φ-nodes, where the destruction algorithms
// (standard instantiation, the paper's new coalescer, or interference-graph
// coalescing) must decide which copies to reinstate.
package ssa

import (
	"fmt"
	"slices"

	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/obs"
	"fastcoalesce/internal/reuse"
)

// Flavor selects the φ-placement policy.
type Flavor int

// SSA flavors. Pruned is the zero value so that a zero Options (and the
// batch driver's zero Config) selects the paper's default.
const (
	Pruned     Flavor = iota // φ only where the variable is live-in (default)
	SemiPruned               // φ only for names live across a block boundary
	Minimal                  // φ at every iterated-dominance-frontier node
)

// String returns the flavor name.
func (fl Flavor) String() string {
	switch fl {
	case Minimal:
		return "minimal"
	case SemiPruned:
		return "semi-pruned"
	case Pruned:
		return "pruned"
	}
	return fmt.Sprintf("flavor(%d)", int(fl))
}

// ParseFlavor parses a -ssa flag value; String's spellings parse too.
func ParseFlavor(s string) (Flavor, error) {
	switch s {
	case "pruned":
		return Pruned, nil
	case "semi", "semi-pruned":
		return SemiPruned, nil
	case "minimal":
		return Minimal, nil
	}
	return Pruned, fmt.Errorf("unknown SSA flavor %q (want pruned, semi, or minimal)", s)
}

// Options configures Build.
type Options struct {
	Flavor     Flavor
	FoldCopies bool // delete copies during renaming (§1)

	// Scratch, when non-nil, supplies reusable construction memory. The
	// resulting SSA form is identical; only allocation behavior differs.
	Scratch *Scratch

	// Obs, when non-nil, receives phase spans (liveness, dom, ssa-build).
	// A nil tracer costs nothing: every method is a nil-receiver no-op.
	Obs *obs.Tracer
}

// Scratch holds the reusable state of one Build: the liveness and
// dominator scratch, dominance frontiers, def-site indexes, and the
// φ-insertion/renaming worklists. A Scratch belongs to one goroutine; the
// batch driver keeps one per worker. The zero value is ready to use.
//
// When Build runs with a Scratch, the returned Stats.Dom points into it
// and is valid only until the next Build with the same Scratch.
type Scratch struct {
	live liveness.Scratch
	dom  dom.Tree
	df   [][]ir.BlockID
	inDF []ir.BlockID

	defBlocks [][]ir.BlockID
	definedIn []ir.BlockID
	globals   []bool
	localDef  []ir.BlockID

	hasPhi   []int32
	inWork   []int32
	work     []ir.BlockID
	placed   []phiSite
	phiCount []int32
	phiStart []int32
	phiOrig  []ir.VarID

	stacks  [][]ir.VarID
	counter []int
	pushed  []ir.VarID
	frames  []renameFrame
	names   ir.NameBuf
}

// phiSite is one φ placement: variable v needs a φ at block b.
type phiSite struct {
	b ir.BlockID
	v ir.VarID
}

// Stats reports what construction did.
type Stats struct {
	PhisInserted  int
	CopiesFolded  int
	InitsInserted int // entry initializations added to enforce strictness
	EdgesSplit    int
	SSAVars       int // total variables after renaming

	// LivenessVisits is the work performed by the liveness solver
	// (liveness.Stats.Visits): its block evaluations.
	LivenessVisits int

	// DomRecomputes is the number of dominator-tree computations Build
	// performed (always 1; the tree is published via Dom for reuse).
	DomRecomputes int

	// Dom is the dominator tree computed during construction. The CFG is
	// not changed after the up-front critical-edge split, so destruction
	// passes (e.g. core.Coalesce) may reuse it.
	Dom *dom.Tree
}

// Build converts f to SSA form in place and returns statistics. The input
// must verify; unreachable blocks are removed and strictness is enforced by
// initializing, at the entry, exactly the variables in the entry's live-in
// set (the restricted initialization the paper describes in §2).
func Build(f *ir.Func, opt Options) *Stats {
	st := &Stats{}
	sc := opt.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	f.RemoveUnreachable()
	st.EdgesSplit = f.SplitCriticalEdges()

	// One liveness computation serves both strictness enforcement and
	// pruned φ placement: the entry initializations only add definitions
	// at the entry, which cannot extend any block's live-in set.
	opt.Obs.Begin(obs.PhaseLiveness)
	live := liveness.ComputeScratch(f, &sc.live)
	opt.Obs.End(obs.PhaseLiveness)
	st.LivenessVisits = sc.live.LastStats().Visits
	st.InitsInserted = enforceStrict(f, live)

	opt.Obs.Begin(obs.PhaseDom)
	sc.dom.Recompute(f)
	st.DomRecomputes = 1
	dt := &sc.dom
	st.Dom = dt
	sc.df, sc.inDF = dt.FrontiersInto(sc.df, sc.inDF)
	df := sc.df
	opt.Obs.End(obs.PhaseDom)
	opt.Obs.Begin(obs.PhaseSSABuild)

	nv := f.NumVars()
	nb := len(f.Blocks)

	// Def sites and block-local def sets per variable.
	defBlocks := reuse.Truncated(sc.defBlocks, nv)
	sc.defBlocks = defBlocks
	definedIn := reuse.Slice(sc.definedIn, nv) // last block seen defining v (dedupe)
	sc.definedIn = definedIn
	for i := range definedIn {
		definedIn[i] = ir.NoBlock
	}
	globals := reuse.Zeroed(sc.globals, nv) // used in some block before any local def
	sc.globals = globals
	localDef := reuse.Slice(sc.localDef, nv)
	sc.localDef = localDef
	for i := range localDef {
		localDef[i] = ir.NoBlock
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, a := range in.Args {
				if localDef[a] != b.ID {
					globals[a] = true
				}
			}
			if in.Op.HasDef() {
				localDef[in.Def] = b.ID
				if definedIn[in.Def] != b.ID {
					definedIn[in.Def] = b.ID
					defBlocks[in.Def] = append(defBlocks[in.Def], b.ID)
				}
			}
		}
	}

	// φ placement with the standard worklist over dominance frontiers;
	// insertPhis then materializes the placements.
	hasPhi := reuse.Slice(sc.hasPhi, nb) // epoch marks, one pass per variable
	sc.hasPhi = hasPhi
	inWork := reuse.Slice(sc.inWork, nb)
	sc.inWork = inWork
	for i := range hasPhi {
		hasPhi[i] = -1
		inWork[i] = -1
	}
	placed := sc.placed[:0]
	work := sc.work[:0]
	for v := 0; v < nv; v++ {
		if len(defBlocks[v]) == 0 {
			continue
		}
		if opt.Flavor == SemiPruned && !globals[v] {
			continue
		}
		work = work[:0]
		for _, b := range defBlocks[v] {
			inWork[b] = int32(v)
			work = append(work, b)
		}
		for len(work) > 0 {
			x := work[len(work)-1]
			work = work[:len(work)-1]
			for _, y := range df[x] {
				if hasPhi[y] == int32(v) {
					continue
				}
				if opt.Flavor == Pruned && !live.LiveIn(y, ir.VarID(v)) {
					continue
				}
				hasPhi[y] = int32(v)
				placed = append(placed, phiSite{b: y, v: ir.VarID(v)})
				if inWork[y] != int32(v) {
					inWork[y] = int32(v)
					work = append(work, y)
				}
			}
		}
	}

	sc.work = work[:0]
	sc.placed = placed
	st.PhisInserted = len(placed)
	sc.insertPhis(f)

	// Renaming via a dominator-tree walk with per-variable stacks. Every
	// definition a fold does not delete, φs included, gets a fresh name,
	// so the name table grows once, by that many.
	fresh := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if op := b.Instrs[i].Op; op.HasDef() && (op != ir.OpCopy || !opt.FoldCopies) {
				fresh++
			}
		}
	}
	f.VarNames = slices.Grow(f.VarNames, fresh)
	sc.stacks = reuse.Truncated(sc.stacks, nv)
	sc.counter = reuse.Zeroed(sc.counter, nv)
	sc.names.Reset()
	r := &renamer{
		f:        f,
		dt:       dt,
		opt:      opt,
		st:       st,
		stacks:   sc.stacks,
		counter:  sc.counter,
		pushed:   sc.pushed[:0],
		phiStart: sc.phiStart,
		phiCount: sc.phiCount,
		phiOrig:  sc.phiOrig,
		names:    &sc.names,
	}
	sc.frames = r.rename(sc.frames[:0])
	sc.pushed = r.pushed[:0]
	sc.names.Flush(f)
	compactDeleted(f)
	st.SSAVars = f.NumVars()
	f.IsSSA = true
	opt.Obs.End(obs.PhaseSSABuild)
	return st
}

// insertPhis materializes the placements in sc.placed: each block that
// gets φs gets one new instruction slice, exactly long enough, with its
// φs in front, and every φ's argument list is carved from one array for
// the whole function. A block's φs come in descending variable order,
// as prepending them one at a time in placement order would leave them.
// sc.phiOrig records each φ's variable in φ order, block by block from
// sc.phiStart, for renaming to read after the φ's own name has changed.
//
// fc:hotpath
func (sc *Scratch) insertPhis(f *ir.Func) {
	nb := len(f.Blocks)
	count := reuse.Zeroed(sc.phiCount, nb)
	start := reuse.Slice(sc.phiStart, nb)
	sc.phiCount, sc.phiStart = count, start
	for _, p := range sc.placed {
		count[p.b]++
	}
	nargs, total := 0, int32(0)
	for b, n := range count {
		start[b] = total
		total += n
		nargs += int(n) * len(f.Blocks[b].Preds)
	}
	sc.phiOrig = reuse.Slice(sc.phiOrig, int(total))
	args := make([]ir.VarID, nargs)
	for b, n := range count {
		if n == 0 {
			continue
		}
		blk := f.Blocks[b]
		ins := make([]ir.Instr, int(n)+len(blk.Instrs))
		copy(ins[n:], blk.Instrs)
		blk.Instrs = ins
	}
	// Fill each block's φ prefix front to back from the last placement
	// on, counting the block's φs again as they go in.
	clear(count)
	for k := len(sc.placed) - 1; k >= 0; k-- {
		p := sc.placed[k]
		blk := f.Blocks[p.b]
		i := count[p.b]
		count[p.b]++
		np := len(blk.Preds)
		a := args[:np:np]
		args = args[np:]
		for j := range a {
			a[j] = p.v
		}
		blk.Instrs[i] = ir.Instr{Op: ir.OpPhi, Def: p.v, Args: a}
		sc.phiOrig[start[p.b]+i] = p.v
	}
}

// enforceStrict initializes, at the top of the entry block, every variable
// in the entry's live-in set and returns how many it added. The entry
// gets one new instruction slice.
func enforceStrict(f *ir.Func, live *liveness.Info) int {
	n := 0
	it := live.LiveInNames(f.Entry)
	for _, ok := it.Next(); ok; _, ok = it.Next() {
		n++
	}
	if n == 0 {
		return 0
	}
	entry := f.Blocks[f.Entry]
	ins := make([]ir.Instr, n+len(entry.Instrs))
	copy(ins[n:], entry.Instrs)
	it = live.LiveInNames(f.Entry)
	for i, v := 0, ir.VarID(0); i < n; i++ {
		v, _ = it.Next()
		ins[i] = ir.Instr{Op: ir.OpConst, Def: v, Const: 0}
	}
	entry.Instrs = ins
	return n
}

type renamer struct {
	f       *ir.Func
	dt      *dom.Tree
	opt     Options
	st      *Stats
	stacks  [][]ir.VarID // per original var: stack of current SSA names
	counter []int        // per original var: next suffix
	pushed  []ir.VarID   // original vars pushed by the blocks on the walk, for popping
	names   *ir.NameBuf  // the fresh names, installed when the walk ends
	undefs  map[ir.VarID]ir.VarID

	// phiOrig[phiStart[b]:][:phiCount[b]] is the original variable of
	// each of block b's φs, in φ order.
	phiStart, phiCount []int32
	phiOrig            []ir.VarID
}

// renameFrame is one block on the dominator-tree walk: the next child to
// visit, and where the block's pushes start in renamer.pushed.
type renameFrame struct {
	b      ir.BlockID
	child  int
	pushed int
}

// undef returns (creating on first use) a zero-initialized SSA name for
// paths on which v has no definition. Minimal and semi-pruned SSA place φs
// at joins where the variable may be dead on some path; those φ arguments
// are undefined and, per the strictness convention (§2), read as zero.
func (r *renamer) undef(v ir.VarID) ir.VarID {
	if u, ok := r.undefs[v]; ok {
		return u
	}
	if r.undefs == nil {
		r.undefs = make(map[ir.VarID]ir.VarID) // fc:lint-ok cold: only minimal and semi-pruned SSA read undefined names
	}
	u := r.f.NewVar(fmt.Sprintf("%s.undef", r.f.VarNames[v])) // fc:lint-ok cold: once per variable read undefined
	entry := r.f.Blocks[r.f.Entry]
	entry.Instrs = append([]ir.Instr{{Op: ir.OpConst, Def: u, Const: 0}}, entry.Instrs...)
	r.undefs[v] = u
	return u
}

func (r *renamer) top(v ir.VarID) ir.VarID {
	s := r.stacks[v]
	if len(s) == 0 {
		panic(fmt.Sprintf("ssa: use of %s before definition (program not strict?)", r.f.VarName(v))) // fc:lint-ok cold: a non-strict program ends the build
	}
	return s[len(s)-1]
}

// fresh creates v's next SSA name, v.N, in the name buffer.
func (r *renamer) fresh(v ir.VarID) ir.VarID {
	n := r.counter[v]
	r.counter[v]++
	return r.names.NewVarNumbered(r.f, r.f.VarNames[v], n)
}

// rename walks the dominator tree from the entry in preorder, renaming
// each block before its children and popping its pushes after them. The
// walk keeps its own stack of frames (reusing frames' memory, which it
// returns), so a dominator tree as deep as the function is long needs no
// goroutine stack.
//
// fc:hotpath
func (r *renamer) rename(frames []renameFrame) []renameFrame {
	frames = append(frames, renameFrame{b: r.f.Entry, pushed: len(r.pushed)})
	r.renameBlock(r.f.Entry)
	for len(frames) > 0 {
		fr := &frames[len(frames)-1]
		if kids := r.dt.Children[fr.b]; fr.child < len(kids) {
			c := kids[fr.child]
			fr.child++
			frames = append(frames, renameFrame{b: c, pushed: len(r.pushed)})
			r.renameBlock(c)
			continue
		}
		for _, v := range r.pushed[fr.pushed:] {
			r.stacks[v] = r.stacks[v][:len(r.stacks[v])-1]
		}
		r.pushed = r.pushed[:fr.pushed]
		frames = frames[:len(frames)-1]
	}
	return frames
}

// renameBlock renames the definitions and uses of block b and fills the
// φ arguments it feeds in its successors, pushing each new name on its
// variable's stack and recording the variable in r.pushed.
//
// fc:hotpath
func (r *renamer) renameBlock(b ir.BlockID) {
	f := r.f
	blk := f.Blocks[b]

	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		if in.Op == ir.OpInvalid {
			continue
		}
		if in.Op == ir.OpPhi {
			v := in.Def // still the original variable
			nn := r.fresh(v)
			in.Def = nn
			r.stacks[v] = append(r.stacks[v], nn)
			r.pushed = append(r.pushed, v)
			continue
		}
		for ai, a := range in.Args {
			in.Args[ai] = r.top(a)
		}
		if !in.Op.HasDef() {
			continue
		}
		v := in.Def
		if r.opt.FoldCopies && in.Op == ir.OpCopy {
			// Fold: the source's current SSA name stands for v from here on.
			r.stacks[v] = append(r.stacks[v], in.Args[0])
			r.pushed = append(r.pushed, v)
			in.Op = ir.OpInvalid
			in.Args = nil
			r.st.CopiesFolded++
			continue
		}
		nn := r.fresh(v)
		in.Def = nn
		r.stacks[v] = append(r.stacks[v], nn)
		r.pushed = append(r.pushed, v)
	}

	// Fill φ arguments in successors for the positions fed by this block.
	for _, s := range blk.Succs {
		sb := f.Blocks[s]
		for pi, p := range sb.Preds {
			if p != b {
				continue
			}
			start := r.phiStart[s]
			for phiIdx, orig := range r.phiOrig[start : start+r.phiCount[s]] {
				if len(r.stacks[orig]) == 0 {
					sb.Instrs[phiIdx].Args[pi] = r.undef(orig)
				} else {
					sb.Instrs[phiIdx].Args[pi] = r.top(orig)
				}
			}
		}
	}
}

// compactDeleted removes instructions marked OpInvalid (folded copies).
func compactDeleted(f *ir.Func) {
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for i := range b.Instrs {
			if b.Instrs[i].Op != ir.OpInvalid {
				out = append(out, b.Instrs[i])
			}
		}
		b.Instrs = out
	}
}
