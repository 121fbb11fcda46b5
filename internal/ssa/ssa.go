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
	"strconv"

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

	// KeepCriticalEdges suppresses the up-front critical-edge split. The
	// destruction algorithms require split edges (lost-copy problem, §3.6),
	// so this is only for tests and measurements of the split itself.
	KeepCriticalEdges bool

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

	hasPhi  []int32
	inWork  []int32
	phiOrig [][]ir.VarID
	work    []ir.BlockID

	stacks  [][]ir.VarID
	counter []int
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
	if !opt.KeepCriticalEdges {
		st.EdgesSplit = f.SplitCriticalEdges()
	}

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

	// φ insertion with the standard worklist over dominance frontiers.
	hasPhi := reuse.Slice(sc.hasPhi, nb) // epoch marks, one pass per variable
	sc.hasPhi = hasPhi
	inWork := reuse.Slice(sc.inWork, nb)
	sc.inWork = inWork
	for i := range hasPhi {
		hasPhi[i] = -1
		inWork[i] = -1
	}
	phiOrig := reuse.Truncated(sc.phiOrig, nb) // original variable of each φ, per block
	sc.phiOrig = phiOrig
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
				yb := f.Blocks[y]
				args := make([]ir.VarID, len(yb.Preds))
				for i := range args {
					args[i] = ir.VarID(v)
				}
				ir.Phi(yb, ir.VarID(v), args)
				phiOrig[y] = append([]ir.VarID{ir.VarID(v)}, phiOrig[y]...)
				st.PhisInserted++
				if inWork[y] != int32(v) {
					inWork[y] = int32(v)
					work = append(work, y)
				}
			}
		}
	}

	sc.work = work[:0]

	// Renaming via a dominator-tree walk with per-variable stacks.
	sc.stacks = reuse.Truncated(sc.stacks, nv)
	sc.counter = reuse.Zeroed(sc.counter, nv)
	r := &renamer{
		f:       f,
		dt:      dt,
		opt:     opt,
		st:      st,
		stacks:  sc.stacks,
		counter: sc.counter,
		phiOrig: phiOrig,
		undefs:  make(map[ir.VarID]ir.VarID),
	}
	r.renameBlock(f.Entry)
	compactDeleted(f)
	st.SSAVars = f.NumVars()
	f.IsSSA = true
	opt.Obs.End(obs.PhaseSSABuild)
	return st
}

// enforceStrict initializes, at the top of the entry block, every variable
// in the entry's live-in set and returns how many it added.
func enforceStrict(f *ir.Func, live *liveness.Info) int {
	entry := f.Blocks[f.Entry]
	var inits []ir.Instr
	it := live.LiveInNames(f.Entry)
	for v, ok := it.Next(); ok; v, ok = it.Next() {
		inits = append(inits, ir.Instr{Op: ir.OpConst, Def: v, Const: 0})
	}
	if len(inits) == 0 {
		return 0
	}
	entry.Instrs = append(inits, entry.Instrs...)
	return len(inits)
}

type renamer struct {
	f       *ir.Func
	dt      *dom.Tree
	opt     Options
	st      *Stats
	stacks  [][]ir.VarID // per original var: stack of current SSA names
	counter []int        // per original var: next suffix
	phiOrig [][]ir.VarID // per block: original var of each φ (in φ order)
	undefs  map[ir.VarID]ir.VarID
}

// undef returns (creating on first use) a zero-initialized SSA name for
// paths on which v has no definition. Minimal and semi-pruned SSA place φs
// at joins where the variable may be dead on some path; those φ arguments
// are undefined and, per the strictness convention (§2), read as zero.
func (r *renamer) undef(v ir.VarID) ir.VarID {
	if u, ok := r.undefs[v]; ok {
		return u
	}
	u := r.f.NewVar(fmt.Sprintf("%s.undef", r.f.VarNames[v]))
	entry := r.f.Blocks[r.f.Entry]
	entry.Instrs = append([]ir.Instr{{Op: ir.OpConst, Def: u, Const: 0}}, entry.Instrs...)
	r.undefs[v] = u
	return u
}

func (r *renamer) top(v ir.VarID) ir.VarID {
	s := r.stacks[v]
	if len(s) == 0 {
		panic(fmt.Sprintf("ssa: use of %s before definition (program not strict?)", r.f.VarName(v)))
	}
	return s[len(s)-1]
}

func (r *renamer) fresh(v ir.VarID) ir.VarID {
	name := r.f.VarNames[v] + "." + strconv.Itoa(r.counter[v])
	r.counter[v]++
	nv := r.f.NewVar(name)
	return nv
}

func (r *renamer) renameBlock(b ir.BlockID) {
	f := r.f
	blk := f.Blocks[b]
	var pushed []ir.VarID // original vars pushed in this block, for popping

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
			pushed = append(pushed, v)
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
			pushed = append(pushed, v)
			in.Op = ir.OpInvalid
			in.Args = nil
			r.st.CopiesFolded++
			continue
		}
		nn := r.fresh(v)
		in.Def = nn
		r.stacks[v] = append(r.stacks[v], nn)
		pushed = append(pushed, v)
	}

	// Fill φ arguments in successors for the positions fed by this block.
	for _, s := range blk.Succs {
		sb := f.Blocks[s]
		for pi, p := range sb.Preds {
			if p != b {
				continue
			}
			for phiIdx, orig := range r.phiOrig[s] {
				if len(r.stacks[orig]) == 0 {
					sb.Instrs[phiIdx].Args[pi] = r.undef(orig)
				} else {
					sb.Instrs[phiIdx].Args[pi] = r.top(orig)
				}
			}
		}
	}

	for _, c := range r.dt.Children[b] {
		r.renameBlock(c)
	}

	for _, v := range pushed {
		r.stacks[v] = r.stacks[v][:len(r.stacks[v])-1]
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
