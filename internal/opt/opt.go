// Package opt implements SSA-level scalar optimizations: dominator-based
// value numbering with constant folding, algebraic simplification, and
// copy propagation, plus a driver that iterates them with dead-code
// elimination to a fixpoint.
//
// The paper situates its coalescer inside an optimizing SSA compiler —
// "it can replace the current copy-insertion phase of an optimizer's SSA
// implementation" (§5) — and optimization is what makes φ-instantiation
// hard: passes delete and rewire instructions, so the values meeting at a
// φ-node are no longer simple renames of one source variable. Running the
// coalescers after these passes is both a realistic deployment and a
// stress test, exercised by the differential fuzzers in internal/bench.
package opt

import (
	"fmt"

	"fastcoalesce/internal/dom"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/ssa"
)

// Stats reports what Optimize did.
type Stats struct {
	Folded     int // instructions replaced by constants
	Simplified int // algebraic identities and φ-collapses applied
	Numbered   int // redundant computations replaced by an earlier value
	CopiesProp int // copies propagated away
	DeadCode   int // instructions removed by DCE
	Rounds     int
}

// Optimize runs value numbering + simplification + copy propagation and
// dead-code elimination to a fixpoint on an SSA-form function. Leader
// information persists across rounds so that copy chains through loop
// back edges (whose φ arguments are walked before the copy that feeds
// them) resolve on the next round.
func Optimize(f *ir.Func) *Stats {
	st := &Stats{}
	s := newVNState(f, st)
	for {
		st.Rounds++
		s.refresh()
		s.walk(f.Entry)
		for _, b := range f.Blocks {
			repartitionPhiPrefix(b)
		}
		vn := s.changes
		dce := ssa.EliminateDeadCode(f)
		st.DeadCode += dce
		if dce > 0 {
			s.pruneLeaders()
		}
		if vn+dce == 0 || st.Rounds > 12 {
			return st
		}
	}
}

// pruneLeaders resets any leader whose definition DCE removed. This can
// happen when a name x acquires a dead leader vA (e.g. both computed the
// same constant, and vA's own uses were already gone) while x's only use
// is a back-edge φ argument that the walk had already passed: vA dies,
// and rewriting the φ argument to it next round would dangle.
func (s *vnState) pruneLeaders() {
	hasDef := make([]bool, s.f.NumVars())
	for _, b := range s.f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op.HasDef() {
				hasDef[b.Instrs[i].Def] = true
			}
		}
	}
	for v := range s.leader {
		if l := s.leader[v]; l != ir.VarID(v) && !hasDef[l] {
			s.leader[v] = ir.VarID(v)
		}
	}
}

// exprKey identifies a pure computation for value numbering.
type exprKey struct {
	op   ir.Op
	a, b ir.VarID
	c    int64
	arr  ir.ArrID
}

// vnState carries the walk's shared structures.
type vnState struct {
	f       *ir.Func
	dt      *dom.Tree
	st      *Stats
	leader  []ir.VarID           // representative SSA name per variable
	constOf map[ir.VarID]int64   // known constant values (by leader name)
	table   map[exprKey]ir.VarID // available expressions, dominator-scoped
	changes int
}

func newVNState(f *ir.Func, st *Stats) *vnState {
	s := &vnState{
		f:       f,
		dt:      dom.New(f),
		st:      st,
		leader:  make([]ir.VarID, f.NumVars()),
		constOf: make(map[ir.VarID]int64),
		table:   make(map[exprKey]ir.VarID),
	}
	for v := range s.leader {
		s.leader[v] = ir.VarID(v)
	}
	return s
}

// refresh resets per-round state while keeping leader and constant
// knowledge (still valid: definitions only disappear when unused, and a
// leader is used by whatever it leads).
func (s *vnState) refresh() {
	s.changes = 0
	clear(s.table)
}

// repartitionPhiPrefix moves the φ-nodes a walk converted to copies out
// of b's φ prefix. The copy's source dominates the block strictly (it
// dominates every predecessor), so no φ in this block can redefine it and
// reading it after the prefix is equivalent.
func repartitionPhiPrefix(b *ir.Block) {
	firstNonPhi := -1
	moved := false
	for i := range b.Instrs {
		if b.Instrs[i].Op == ir.OpPhi {
			if firstNonPhi >= 0 {
				moved = true
				break
			}
		} else if firstNonPhi < 0 {
			firstNonPhi = i
		}
	}
	if !moved {
		return
	}
	phis := make([]ir.Instr, 0, len(b.Instrs))
	rest := make([]ir.Instr, 0, len(b.Instrs))
	for i := range b.Instrs {
		if b.Instrs[i].Op == ir.OpPhi {
			phis = append(phis, b.Instrs[i])
		} else {
			rest = append(rest, b.Instrs[i])
		}
	}
	b.Instrs = append(phis, rest...)
}

// walk performs one dominator-tree walk of value numbering from b,
// counting the changes it makes in s.changes.
//
// Every variable gets a leader — an earlier SSA name (or itself) holding
// the same value. Uses are rewritten to leaders; constant operands fold;
// algebraic identities (x+0, x*1, x/1, x-0) simplify to an operand; pure
// expressions already computed on the dominating path become copies of
// the earlier result; φ-nodes whose incoming values all lead to one name
// collapse to copies. Dead-code elimination afterwards sweeps up the
// copies this leaves behind.
func (s *vnState) walk(b ir.BlockID) {
	blk := s.f.Blocks[b]
	var scope []exprKey
	record := func(k exprKey, v ir.VarID) {
		s.table[k] = v
		scope = append(scope, k)
	}

	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		// Rewrite uses to leaders. For φ args this is safe: the leader's
		// definition dominates the old name's, which dominates the edge.
		for ai, a := range in.Args {
			if l := s.leader[a]; l != a {
				in.Args[ai] = l
				s.changes++
			}
		}

		switch {
		case in.Op == ir.OpConst:
			s.constOf[in.Def] = in.Const
			k := exprKey{op: ir.OpConst, c: in.Const}
			if prev, ok := s.table[k]; ok {
				s.leader[in.Def] = prev
				s.st.Numbered++
				s.changes++
			} else {
				record(k, in.Def)
			}

		case in.Op == ir.OpCopy:
			// Recording a leader is bookkeeping, not a change: the copy
			// itself dies in DCE once every use has been redirected.
			src := in.Args[0]
			if s.leader[in.Def] != s.leader[src] {
				s.leader[in.Def] = s.leader[src]
				s.st.CopiesProp++
			}
			if c, ok := s.constOf[s.leader[src]]; ok {
				s.constOf[in.Def] = c
			}

		case in.Op == ir.OpPhi:
			// Collapse a φ whose incoming values all lead to one name
			// (the name dominates every predecessor, hence this block),
			// or whose incoming values are all the same known constant
			// (the arms need not dominate the join; materialize it).
			all := ir.NoVar
			same := true
			for _, a := range in.Args {
				l := s.leader[a]
				if l == in.Def {
					continue // self-reference contributes no new value
				}
				if all == ir.NoVar {
					all = l
				} else if l != all {
					same = false
					break
				}
			}
			if same && all != ir.NoVar && all != in.Def {
				in.Op = ir.OpCopy
				in.Args = []ir.VarID{all}
				s.leader[in.Def] = all
				if c, ok := s.constOf[all]; ok {
					s.constOf[in.Def] = c
				}
				s.st.Simplified++
				s.changes++
				break
			}
			if cv, ok := s.constOf[s.leader[in.Args[0]]]; ok {
				allConst := true
				for _, a := range in.Args[1:] {
					c2, ok := s.constOf[s.leader[a]]
					if !ok || c2 != cv {
						allConst = false
						break
					}
				}
				if allConst {
					in.Op = ir.OpConst
					in.Args = nil
					in.Const = cv
					s.constOf[in.Def] = cv
					s.st.Simplified++
					s.changes++
				}
			}

		case in.Op.HasDef() && isPure(in.Op):
			if c, ok := foldConst(in, s.constOf); ok {
				in.Op = ir.OpConst
				in.Args = nil
				in.Arr = ir.NoArr
				in.Const = c
				s.constOf[in.Def] = c
				s.st.Folded++
				s.changes++
				k := exprKey{op: ir.OpConst, c: c}
				if prev, ok := s.table[k]; ok {
					s.leader[in.Def] = prev
				} else {
					record(k, in.Def)
				}
				break
			}
			if r, ok := simplify(in, s.constOf); ok {
				in.Op = ir.OpCopy
				in.Args = []ir.VarID{r}
				in.Arr = ir.NoArr
				s.leader[in.Def] = s.leader[r]
				if c, ok := s.constOf[s.leader[r]]; ok {
					s.constOf[in.Def] = c
				}
				s.st.Simplified++
				s.changes++
				break
			}
			k := keyOf(in)
			if prev, ok := s.table[k]; ok {
				in.Op = ir.OpCopy
				in.Args = []ir.VarID{prev}
				in.Arr = ir.NoArr
				s.leader[in.Def] = prev
				s.st.Numbered++
				s.changes++
			} else {
				record(k, in.Def)
			}
		}
	}

	for _, c := range s.dt.Children[b] {
		s.walk(c)
	}
	for _, k := range scope {
		delete(s.table, k)
	}
}

// isPure reports whether the op's result depends only on its operands
// (and, for ALen, the array identity — array lengths never change).
func isPure(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpNeg, ir.OpNot,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE,
		ir.OpALen:
		return true
	}
	return false
}

// keyOf canonicalizes a pure instruction, commuting symmetric operators.
func keyOf(in *ir.Instr) exprKey {
	k := exprKey{op: in.Op, arr: in.Arr}
	switch len(in.Args) {
	case 1:
		k.a = in.Args[0]
	case 2:
		k.a, k.b = in.Args[0], in.Args[1]
		switch in.Op {
		case ir.OpAdd, ir.OpMul, ir.OpCmpEQ, ir.OpCmpNE:
			if k.a > k.b {
				k.a, k.b = k.b, k.a
			}
		}
	}
	return k
}

// foldConst evaluates in if all operands are known constants, with the
// interpreter's total semantics (x/0 = 0, x%0 = 0).
func foldConst(in *ir.Instr, constOf map[ir.VarID]int64) (int64, bool) {
	vals := make([]int64, len(in.Args))
	for i, a := range in.Args {
		c, ok := constOf[a]
		if !ok {
			return 0, false
		}
		vals[i] = c
	}
	if len(vals) == 0 {
		return 0, false
	}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch in.Op {
	case ir.OpAdd:
		return vals[0] + vals[1], true
	case ir.OpSub:
		return vals[0] - vals[1], true
	case ir.OpMul:
		return vals[0] * vals[1], true
	case ir.OpDiv:
		if vals[1] == 0 {
			return 0, true
		}
		if vals[0] == -1<<63 && vals[1] == -1 {
			return -1 << 63, true
		}
		return vals[0] / vals[1], true
	case ir.OpRem:
		if vals[1] == 0 {
			return 0, true
		}
		if vals[0] == -1<<63 && vals[1] == -1 {
			return 0, true
		}
		return vals[0] % vals[1], true
	case ir.OpNeg:
		return -vals[0], true
	case ir.OpNot:
		return b2i(vals[0] == 0), true
	case ir.OpCmpEQ:
		return b2i(vals[0] == vals[1]), true
	case ir.OpCmpNE:
		return b2i(vals[0] != vals[1]), true
	case ir.OpCmpLT:
		return b2i(vals[0] < vals[1]), true
	case ir.OpCmpLE:
		return b2i(vals[0] <= vals[1]), true
	case ir.OpCmpGT:
		return b2i(vals[0] > vals[1]), true
	case ir.OpCmpGE:
		return b2i(vals[0] >= vals[1]), true
	}
	return 0, false
}

// simplify applies algebraic identities that reduce the instruction to an
// existing operand and returns the replacement variable.
func simplify(in *ir.Instr, constOf map[ir.VarID]int64) (ir.VarID, bool) {
	if len(in.Args) != 2 {
		return 0, false
	}
	c := func(i int) (int64, bool) {
		v, ok := constOf[in.Args[i]]
		return v, ok
	}
	switch in.Op {
	case ir.OpAdd:
		if v, ok := c(0); ok && v == 0 {
			return in.Args[1], true
		}
		if v, ok := c(1); ok && v == 0 {
			return in.Args[0], true
		}
	case ir.OpSub:
		if v, ok := c(1); ok && v == 0 {
			return in.Args[0], true
		}
	case ir.OpMul:
		if v, ok := c(0); ok && v == 1 {
			return in.Args[1], true
		}
		if v, ok := c(1); ok && v == 1 {
			return in.Args[0], true
		}
	case ir.OpDiv:
		if v, ok := c(1); ok && v == 1 {
			return in.Args[0], true
		}
	}
	return 0, false
}

// Verify checks optimizer invariants used in tests: no self copies remain.
func Verify(f *ir.Func) error {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpCopy && in.Def == in.Args[0] {
				return fmt.Errorf("opt: self copy of %s in b%d", f.VarName(in.Def), b.ID)
			}
		}
	}
	return nil
}
