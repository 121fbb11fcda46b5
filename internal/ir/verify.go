package ir

import "fmt"

// opArity fixes the operand count of every opcode with a static arity;
// -1 marks the others (φ arity is the predecessor count, checked
// separately).
var opArity = [numOps]int8{
	OpInvalid: -1, OpPhi: -1,
	OpConst: 0, OpCopy: 1, OpParam: 0,
	OpAdd: 2, OpSub: 2, OpMul: 2, OpDiv: 2, OpRem: 2,
	OpNeg: 1, OpNot: 1,
	OpCmpEQ: 2, OpCmpNE: 2, OpCmpLT: 2, OpCmpLE: 2, OpCmpGT: 2, OpCmpGE: 2,
	OpALoad: 1, OpAStore: 2, OpALen: 0,
	OpJmp: 0, OpBr: 1, OpRet: 1,
}

// Verify checks structural well-formedness of the function: edge symmetry,
// terminator placement, φ placement and arity, and operand validity. When
// the function is flagged as SSA (IsSSA), it additionally rejects duplicate
// CFG edges and multiple definitions of the same name within one block.
// It returns the first violation found, or nil.
func (f *Func) Verify() error {
	if int(f.Entry) >= len(f.Blocks) || f.Entry < 0 {
		return fmt.Errorf("%s: bad entry block b%d", f.Name, f.Entry)
	}
	if len(f.Blocks[f.Entry].Preds) != 0 {
		return fmt.Errorf("%s: entry block b%d has predecessors", f.Name, f.Entry)
	}
	// definedIn[v] == k+1 while the k-th block checked has defined v, so
	// one table serves every block's duplicate-definition check.
	var definedIn []int32
	if f.IsSSA {
		definedIn = make([]int32, len(f.VarNames))
	}
	for k, b := range f.Blocks {
		if b == nil {
			continue
		}
		if err := f.verifyBlock(b, definedIn, int32(k)+1); err != nil {
			return err
		}
	}
	return nil
}

func (f *Func) verifyBlock(b *Block, definedIn []int32, mark int32) error {
	// Edge symmetry.
	for _, s := range b.Succs {
		if int(s) >= len(f.Blocks) || f.Blocks[s] == nil {
			return fmt.Errorf("%s: b%d has dangling successor b%d", f.Name, b.ID, s)
		}
		if f.Blocks[s].PredIndex(b.ID) < 0 {
			return fmt.Errorf("%s: edge b%d->b%d missing from preds", f.Name, b.ID, s)
		}
	}
	for _, p := range b.Preds {
		if int(p) >= len(f.Blocks) || f.Blocks[p] == nil {
			return fmt.Errorf("%s: b%d has dangling predecessor b%d", f.Name, b.ID, p)
		}
		found := false
		for _, s := range f.Blocks[p].Succs {
			if s == b.ID {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%s: edge b%d->b%d missing from succs", f.Name, p, b.ID)
		}
	}

	if f.IsSSA {
		// Duplicate edges are legal in general IR (interp disambiguates φ
		// reads by edge ordinal), but SSA form here always follows
		// critical-edge splitting, after which a duplicated edge cannot
		// survive: one copy of the pair would be critical.
		for i, s := range b.Succs {
			for _, t := range b.Succs[:i] {
				if s == t {
					return fmt.Errorf("%s: SSA function has duplicate edge b%d->b%d",
						f.Name, b.ID, s)
				}
			}
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.Op.HasDef() || in.Def == NoVar {
				continue
			}
			if in.Def < 0 || int(in.Def) >= len(definedIn) {
				continue // a bad def, reported below
			}
			if definedIn[in.Def] == mark {
				j := 0
				for b.Instrs[j].Def != in.Def || !b.Instrs[j].Op.HasDef() {
					j++
				}
				return fmt.Errorf("%s: SSA block b%d defines %s twice (b%d.%d and b%d.%d)",
					f.Name, b.ID, f.VarName(in.Def), b.ID, j, b.ID, i)
			}
			definedIn[in.Def] = mark
		}
	}

	// Terminator shape.
	if len(b.Instrs) == 0 {
		return fmt.Errorf("%s: b%d is empty", f.Name, b.ID)
	}
	term := b.Instrs[len(b.Instrs)-1]
	if !term.Op.IsTerminator() {
		return fmt.Errorf("%s: b%d does not end in a terminator (got %s)", f.Name, b.ID, term.Op)
	}
	wantSuccs := 0
	switch term.Op {
	case OpJmp:
		wantSuccs = 1
	case OpBr:
		wantSuccs = 2
	}
	if len(b.Succs) != wantSuccs {
		return fmt.Errorf("%s: b%d terminator %s has %d successors, want %d",
			f.Name, b.ID, term.Op, len(b.Succs), wantSuccs)
	}

	// Instruction contents.
	inPhiPrefix := true
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Op == OpInvalid || in.Op >= numOps {
			return fmt.Errorf("%s: b%d.%d has invalid opcode", f.Name, b.ID, i)
		}
		if in.Op.IsTerminator() && i != len(b.Instrs)-1 {
			return fmt.Errorf("%s: b%d.%d terminator %s not at block end", f.Name, b.ID, i, in.Op)
		}
		if in.Op == OpPhi {
			if !inPhiPrefix {
				return fmt.Errorf("%s: b%d.%d φ-node after non-φ instruction", f.Name, b.ID, i)
			}
			if len(in.Args) != len(b.Preds) {
				return fmt.Errorf("%s: b%d.%d φ has %d args for %d preds",
					f.Name, b.ID, i, len(in.Args), len(b.Preds))
			}
		} else {
			inPhiPrefix = false
		}
		if in.Op.HasDef() {
			if in.Def == NoVar || int(in.Def) >= len(f.VarNames) {
				return fmt.Errorf("%s: b%d.%d %s has bad def %d", f.Name, b.ID, i, in.Op, in.Def)
			}
		}
		for _, a := range in.Args {
			if a == NoVar || int(a) >= len(f.VarNames) {
				return fmt.Errorf("%s: b%d.%d %s has bad arg %d", f.Name, b.ID, i, in.Op, a)
			}
		}
		if want := int(opArity[in.Op]); want >= 0 && len(in.Args) != want {
			return fmt.Errorf("%s: b%d.%d %s has %d args, want %d",
				f.Name, b.ID, i, in.Op, len(in.Args), want)
		}
		switch in.Op {
		case OpALoad, OpAStore, OpALen:
			if in.Arr == NoArr || int(in.Arr) >= len(f.ArrNames) {
				return fmt.Errorf("%s: b%d.%d %s has bad array %d", f.Name, b.ID, i, in.Op, in.Arr)
			}
		case OpParam:
			if in.Const < 0 || int(in.Const) >= len(f.Params) {
				return fmt.Errorf("%s: b%d.%d param index %d out of range (%d params)",
					f.Name, b.ID, i, in.Const, len(f.Params))
			}
		}
	}
	return nil
}
