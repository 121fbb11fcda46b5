package ir

// RemoveUnreachable deletes blocks not reachable from the entry, compacts
// block IDs (and f.Blocks, in place), and drops φ arguments that flowed
// along deleted edges. It returns the number of blocks removed.
func (f *Func) RemoveUnreachable() int {
	// remap[id] is NoBlock for an unreached block and the block's new ID
	// otherwise; the walk's stack shares its allocation.
	n := len(f.Blocks)
	buf := make([]BlockID, 2*n)
	remap, stack := buf[:n], buf[n:n]
	for i := range remap {
		remap[i] = NoBlock
	}
	remap[f.Entry] = 0
	stack = append(stack, f.Entry)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range f.Blocks[b].Succs {
			if remap[s] == NoBlock {
				remap[s] = 0
				stack = append(stack, s)
			}
		}
	}
	removed := 0
	var next BlockID
	for id := range remap {
		if remap[id] == NoBlock {
			removed++
		} else {
			remap[id] = next
			next++
		}
	}
	if removed == 0 {
		return 0
	}

	// Drop φ args and pred entries contributed by unreachable
	// predecessors, renumber, and compact.
	blocks := f.Blocks[:0]
	for id, b := range f.Blocks {
		if remap[id] == NoBlock {
			continue
		}
		for j := range b.Instrs {
			in := &b.Instrs[j]
			if in.Op != OpPhi {
				break
			}
			args := in.Args[:0]
			for i, a := range in.Args {
				if remap[b.Preds[i]] != NoBlock {
					args = append(args, a)
				}
			}
			in.Args = args
		}
		preds := b.Preds[:0]
		for _, p := range b.Preds {
			if remap[p] != NoBlock {
				preds = append(preds, remap[p])
			}
		}
		b.Preds = preds
		for i := range b.Succs {
			b.Succs[i] = remap[b.Succs[i]]
		}
		b.ID = remap[id]
		blocks = append(blocks, b)
	}
	clear(f.Blocks[len(blocks):])
	f.Blocks = blocks
	f.Entry = remap[f.Entry]
	return removed
}

// SplitCriticalEdges inserts an empty block on every critical edge — an
// edge from a block with multiple successors to a block with multiple
// predecessors. The paper splits critical edges up front to avoid the
// lost-copy problem during φ-node instantiation (§3.6). φ arguments stay
// aligned because the predecessor is replaced in place. It returns the
// number of edges split.
func (f *Func) SplitCriticalEdges() int {
	split := 0
	// Snapshot the block count: newly added blocks are never critical
	// sources (they have exactly one successor).
	n := len(f.Blocks)
	for bi := 0; bi < n; bi++ {
		b := f.Blocks[bi]
		if len(b.Succs) < 2 {
			continue
		}
		for si, s := range b.Succs {
			sb := f.Blocks[s]
			if len(sb.Preds) < 2 {
				continue
			}
			m := f.NewBlock()
			m.Instrs = append(m.Instrs, Instr{Op: OpJmp, Def: NoVar})
			m.Preds = []BlockID{b.ID}
			m.Succs = []BlockID{s}
			b.Succs[si] = m.ID
			sb.Preds[sb.PredIndex(b.ID)] = m.ID
			split++
		}
	}
	return split
}
