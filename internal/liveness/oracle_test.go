package liveness

// Cross-checks the bitset dataflow against an independent formulation:
// per-variable backward propagation from each use site (Appel's
// "live range by walking back from uses"), over randomized CFGs with
// φ-nodes. The two algorithms share no code, so agreement on thousands of
// (block, variable) points is strong evidence both are right.

import (
	"math/rand"
	"testing"

	"fastcoalesce/internal/ir"
)

// oracle computes live-in/live-out per block and variable by backward
// walks from uses.
func oracle(f *ir.Func) (in, out [][]bool) {
	nb := len(f.Blocks)
	nv := f.NumVars()
	in = make([][]bool, nb)
	out = make([][]bool, nb)
	for i := 0; i < nb; i++ {
		in[i] = make([]bool, nv)
		out[i] = make([]bool, nv)
	}

	// defsBefore reports whether v is defined in b at or before instr
	// index limit (exclusive); limit < 0 means the whole block. φ defs
	// count (they define at block entry).
	definedIn := func(b *ir.Block, v ir.VarID, limit int) bool {
		n := len(b.Instrs)
		if limit >= 0 {
			n = limit
		}
		for i := 0; i < n; i++ {
			inr := &b.Instrs[i]
			if inr.Op.HasDef() && inr.Def == v {
				return true
			}
		}
		return false
	}

	// markLiveOut propagates "v is live at exit of block b" backward.
	var markLiveOut func(b ir.BlockID, v ir.VarID)
	markLiveOut = func(b ir.BlockID, v ir.VarID) {
		blk := f.Blocks[b]
		if out[b][v] {
			return
		}
		out[b][v] = true
		if definedIn(blk, v, -1) {
			return // killed inside b
		}
		in[b][v] = true
		for _, p := range blk.Preds {
			markLiveOut(p, v)
		}
	}

	for _, b := range f.Blocks {
		for i := range b.Instrs {
			inr := &b.Instrs[i]
			if inr.Op == ir.OpPhi {
				// Each argument is used at the end of its predecessor.
				for ai, a := range inr.Args {
					markLiveOut(b.Preds[ai], a)
				}
				continue
			}
			for _, a := range inr.Args {
				// Used at instruction i: live at entry of b unless some
				// earlier instruction in b defines it.
				if definedIn(b, a, i) {
					continue
				}
				if !in[b.ID][a] {
					in[b.ID][a] = true
					for _, p := range b.Preds {
						markLiveOut(p, a)
					}
				}
			}
		}
	}
	return in, out
}

// randomCFGWithPhis builds a random function with φ-nodes whose arguments
// are arbitrary variables (liveness does not require SSA well-formedness).
func randomCFGWithPhis(rng *rand.Rand, nb, nv int) *ir.Func {
	f := ir.NewFunc("live")
	vars := make([]ir.VarID, nv)
	for i := range vars {
		vars[i] = f.NewVar("")
	}
	for len(f.Blocks) < nb {
		f.NewBlock()
	}
	pick := func() ir.VarID { return vars[rng.Intn(nv)] }

	// Edges first (so φ arity is known); entry has no preds.
	for bi := 0; bi < nb-1; bi++ {
		if rng.Intn(3) == 0 {
			f.AddEdge(ir.BlockID(bi), ir.BlockID(bi+1))
		} else {
			t2 := 1 + rng.Intn(nb-1)
			f.AddEdge(ir.BlockID(bi), ir.BlockID(bi+1))
			f.AddEdge(ir.BlockID(bi), ir.BlockID(t2))
		}
	}
	for bi, b := range f.Blocks {
		// φ prefix on join blocks.
		if len(b.Preds) >= 2 && rng.Intn(2) == 0 {
			args := make([]ir.VarID, len(b.Preds))
			for i := range args {
				args[i] = pick()
			}
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpPhi, Def: pick(), Args: args})
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			switch rng.Intn(3) {
			case 0:
				b.Instrs = append(b.Instrs,
					ir.Instr{Op: ir.OpConst, Def: pick(), Const: 1})
			case 1:
				b.Instrs = append(b.Instrs,
					ir.Instr{Op: ir.OpCopy, Def: pick(), Args: []ir.VarID{pick()}})
			default:
				b.Instrs = append(b.Instrs,
					ir.Instr{Op: ir.OpAdd, Def: pick(), Args: []ir.VarID{pick(), pick()}})
			}
		}
		switch len(b.Succs) {
		case 0:
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{pick()}})
		case 1:
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpJmp, Def: ir.NoVar})
		default:
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{pick()}})
		}
		_ = bi
	}
	f.RemoveUnreachable()
	return f
}

// TestLivenessAgainstOracle queries every (block, name) point under both
// solvers, block-local names included: those get no bit, so the oracle's
// agreement on them is what proves "no bit means not live" exact.
func TestLivenessAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	points, local := 0, 0
	var sc [2]Scratch
	for trial := 0; trial < 250; trial++ {
		f := randomCFGWithPhis(rng, 3+rng.Intn(10), 2+rng.Intn(5))
		addBlockLocals(rng, f)
		if err := f.Verify(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		oin, oout := oracle(f)
		for si, solver := range solvers {
			li := solver.compute(f, &sc[si])
			for b := range f.Blocks {
				bid := ir.BlockID(b)
				for v := ir.VarID(0); int(v) < f.NumVars(); v++ {
					points++
					if li.bit[v] < 0 {
						local++
					}
					if got := li.LiveIn(bid, v); got != oin[b][v] {
						t.Fatalf("trial %d, %s: LiveIn(b%d, %s) = %v, oracle %v\n%s",
							trial, solver.name, b, f.VarName(v), got, oin[b][v], f)
					}
					if got := li.LiveOut(bid, v); got != oout[b][v] {
						t.Fatalf("trial %d, %s: LiveOut(b%d, %s) = %v, oracle %v\n%s",
							trial, solver.name, b, f.VarName(v), got, oout[b][v], f)
					}
				}
			}
		}
	}
	if points < 15000 || local < 1000 {
		t.Fatalf("only %d comparison points, %d of them on block-local names", points, local)
	}
}

// addBlockLocals gives some blocks of f a fresh temporary that is defined
// and consumed inside the block, just before its terminator: t = a + a;
// c = t. Such a name crosses no block boundary.
func addBlockLocals(rng *rand.Rand, f *ir.Func) {
	nv := f.NumVars()
	for _, b := range f.Blocks {
		if rng.Intn(2) == 0 {
			continue
		}
		tmp := f.NewVar("")
		a, c := ir.VarID(rng.Intn(nv)), ir.VarID(rng.Intn(nv))
		term := b.Instrs[len(b.Instrs)-1]
		b.Instrs = append(b.Instrs[:len(b.Instrs)-1],
			ir.Instr{Op: ir.OpAdd, Def: tmp, Args: []ir.VarID{a, a}},
			ir.Instr{Op: ir.OpCopy, Def: c, Args: []ir.VarID{tmp}},
			term)
	}
}
