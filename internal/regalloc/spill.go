package regalloc

import (
	"strconv"

	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/reuse"
)

// rewriteSpills rewrites every name of toSpill as a memory-resident value
// in one pass over f: a store follows every definition and a fresh
// temporary is loaded before every use, so each long live range becomes
// many tiny ones (the spill-everywhere model). toSpill[j] lives in spill
// slot firstSlot+j of arr. It returns the reload and store counts; the
// temporaries it creates are the VarIDs from the entry f.NumVars() up.
//
// The output is exactly that of rewriting the names one at a time in
// toSpill order: each name's temporaries take a contiguous block of
// VarIDs, in toSpill order, numbered in program order within the block;
// the reloads before an instruction come in toSpill order, one per
// (instruction, name); a reload temporary is named "<name>.rld" and every
// other temporary "v<id>", as ir.Func.NewVar names it. Blocks that mention
// no spilled name keep their instruction slice; every other block gets
// exactly one new one.
func (sc *Scratch) rewriteSpills(f *ir.Func, toSpill []ir.VarID, arr ir.ArrID, firstSlot int) (reloads, stores int) {
	nv := f.NumVars()
	ord := reuse.Slice(sc.spillOrd, nv)
	sc.spillOrd = ord
	for v := range ord {
		ord[v] = -1
	}
	for j, v := range toSpill {
		ord[v] = int32(j)
	}

	// First scan: count each name's temporaries (two per reload, one per
	// store) and each block's new instructions (two per reload or store).
	next := reuse.Zeroed(sc.spillNext, len(toSpill))
	sc.spillNext = next
	grow := reuse.Zeroed(sc.spillGrow, len(f.Blocks))
	sc.spillGrow = grow
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, j := range sc.spilledUses(in) {
				next[j] += 2
				grow[b.ID] += 2
				reloads++
			}
			if in.Op.HasDef() {
				if j := ord[in.Def]; j >= 0 {
					next[j]++
					grow[b.ID] += 2
					stores++
				}
			}
		}
	}

	// Turn the counts into each name's next free VarID.
	id := ir.VarID(nv)
	for j, n := range next {
		next[j] = id
		id += n
	}
	if cap(f.VarNames) < int(id) {
		names := make([]string, nv, max(int(id), 2*cap(f.VarNames)))
		copy(names, f.VarNames)
		f.VarNames = names
	}
	f.VarNames = f.VarNames[:id] // every new name is set below
	rld := reuse.Zeroed(sc.spillRld, len(toSpill))
	sc.spillRld = rld
	// One backing array for every new instruction's arguments: an aload
	// takes its slot index, an astore its slot index and the value.
	args := make([]ir.VarID, reloads+2*stores)
	var buf [24]byte
	tempName := func(t ir.VarID) string {
		return string(strconv.AppendInt(append(buf[:0], 'v'), int64(t), 10))
	}

	for _, b := range f.Blocks {
		if grow[b.ID] == 0 {
			continue
		}
		out := make([]ir.Instr, 0, len(b.Instrs)+int(grow[b.ID]))
		for i := range b.Instrs {
			in := b.Instrs[i]
			for _, j := range sc.spilledUses(&in) {
				v := toSpill[j]
				t, idx := next[j], next[j]+1
				next[j] += 2
				if rld[j] == "" {
					rld[j] = f.VarNames[v] + ".rld"
				}
				f.VarNames[t] = rld[j]
				f.VarNames[idx] = tempName(idx)
				a := args[:1:1]
				args = args[1:]
				a[0] = idx
				out = append(out,
					ir.Instr{Op: ir.OpConst, Def: idx, Const: int64(firstSlot + int(j))},
					ir.Instr{Op: ir.OpALoad, Def: t, Args: a, Arr: arr})
				for ai, x := range in.Args {
					if x == v {
						in.Args[ai] = t
					}
				}
			}
			out = append(out, in)
			if in.Op.HasDef() {
				if j := ord[in.Def]; j >= 0 {
					idx := next[j]
					next[j]++
					f.VarNames[idx] = tempName(idx)
					a := args[:2:2]
					args = args[2:]
					a[0], a[1] = idx, in.Def
					out = append(out,
						ir.Instr{Op: ir.OpConst, Def: idx, Const: int64(firstSlot + int(j))},
						ir.Instr{Op: ir.OpAStore, Args: a, Arr: arr})
				}
			}
		}
		b.Instrs = out
	}
	clear(rld) // the names belong to f now
	return reloads, stores
}

// spilledUses returns the toSpill indexes of the spilled names among in's
// arguments, each once, in increasing order. The slice aliases sc and is
// valid until the next call.
func (sc *Scratch) spilledUses(in *ir.Instr) []int32 {
	uses := sc.spillUses[:0]
	for _, a := range in.Args {
		j := sc.spillOrd[a]
		if j < 0 {
			continue
		}
		k := len(uses)
		for k > 0 && uses[k-1] > j {
			k--
		}
		if k > 0 && uses[k-1] == j {
			continue
		}
		uses = append(uses, 0)
		copy(uses[k+1:], uses[k:])
		uses[k] = j
	}
	sc.spillUses = uses
	return uses
}
