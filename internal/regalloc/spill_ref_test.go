package regalloc

import (
	"fmt"

	"fastcoalesce/internal/ir"
)

// This file keeps the per-name spill rewriter as the reference that
// rewriteSpills must reproduce exactly: rewriting a round's names one at
// a time, in toSpill order, each with a full pass over f.

// insertSpillCode rewrites v as a memory-resident value: a store follows
// every definition and a fresh temporary is loaded before every use, so
// v's long live range becomes many tiny ones (the spill-everywhere
// model). Blocks that never mention v are left untouched, instruction
// slice and all. It returns the temporaries it created plus the reload
// and store counts.
func insertSpillCode(f *ir.Func, v ir.VarID, arr ir.ArrID, slot int) (temps []ir.VarID, reloads, stores int) {
	for _, b := range f.Blocks {
		touched := false
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op.HasDef() && in.Def == v {
				touched = true
				break
			}
			for _, a := range in.Args {
				if a == v {
					touched = true
					break
				}
			}
			if touched {
				break
			}
		}
		if !touched {
			continue
		}
		var out []ir.Instr
		for i := range b.Instrs {
			in := b.Instrs[i]
			usesV := false
			for _, a := range in.Args {
				if a == v {
					usesV = true
					break
				}
			}
			if usesV {
				t := f.NewVar(fmt.Sprintf("%s.rld", f.VarNames[v]))
				idx := f.NewVar("")
				temps = append(temps, t, idx)
				reloads++
				out = append(out,
					ir.Instr{Op: ir.OpConst, Def: idx, Const: int64(slot)},
					ir.Instr{Op: ir.OpALoad, Def: t, Args: []ir.VarID{idx}, Arr: arr})
				for ai, a := range in.Args {
					if a == v {
						in.Args[ai] = t
					}
				}
			}
			out = append(out, in)
			if in.Op.HasDef() && in.Def == v {
				idx := f.NewVar("")
				temps = append(temps, idx)
				stores++
				out = append(out,
					ir.Instr{Op: ir.OpConst, Def: idx, Const: int64(slot)},
					ir.Instr{Op: ir.OpAStore, Args: []ir.VarID{idx, v}, Arr: arr})
			}
		}
		b.Instrs = out
	}
	return temps, reloads, stores
}

// rewriteSpillsPerName is a spillRewriter over insertSpillCode.
func rewriteSpillsPerName(_ *Scratch, f *ir.Func, toSpill []ir.VarID, arr ir.ArrID, firstSlot int) (reloads, stores int) {
	for j, v := range toSpill {
		_, r, s := insertSpillCode(f, v, arr, firstSlot+j)
		reloads += r
		stores += s
	}
	return reloads, stores
}

// AllocateReference is AllocateScratch with the per-name reference
// rewriter, for the differential tests outside this package.
func AllocateReference(f *ir.Func, opt Options) (*Result, error) {
	return (&Scratch{}).allocate(f, opt, rewriteSpillsPerName)
}
