// Package liveness implements backward live-variable analysis over the
// IR, with the φ-aware convention the paper relies on (§3.1):
//
//   - a φ-node's definition occurs at the top of its block, so the φ name
//     is never live-in to that block;
//   - a φ-node's i-th argument is used on the incoming edge from the i-th
//     predecessor, so it is live-out of that predecessor but NOT live-in to
//     the φ's block ("our liveness analysis distinguishes between values
//     that flow into b's φ-nodes and values that flow directly to some
//     other use in b or b's successors").
//
// The same code handles non-SSA programs (no φ-nodes present).
//
// Only global names get a bit. A name is global when it is upward-exposed
// in some block (used before any definition there) or used as a φ
// argument — semi-pruned SSA's "global names" (Briggs et al.). Every
// other name is defined before each of its uses inside one block, so it
// is in no live-in or live-out set of the least fixpoint, and LiveIn and
// LiveOut answer false for it exactly. The sets are therefore as wide as
// the global names, not as all names: the compact-numbering device of
// Briggs* (§4.1) applied to the live sets, and the sparse-analysis idea
// of tracking only variables whose facts can be nonempty (Tavares et al.,
// arXiv 1403.5952). Bits are numbered in increasing VarID order, so
// iterating a set (LiveInNames, LiveOutNames) yields names in VarID
// order.
//
// Two solvers compute the same (unique) least fixpoint:
//
//   - the production predecessor-driven worklist solver (ComputeScratch):
//     blocks are seeded once in postorder and thereafter a block is
//     revisited only when the live-in set of one of its successors grew,
//     in the spirit of sparse dataflow evaluation — on typical CFGs most
//     blocks are processed once or twice;
//   - the round-robin solver (ComputeRoundRobinScratch): full postorder
//     sweeps until a sweep changes nothing. Only the tests call it, as
//     the differential oracle and the simplest possible reference
//     implementation.
//
// Blocks unreachable from the entry keep empty sets under both solvers.
//
// Concurrency: an Info is immutable once returned and safe for concurrent
// readers. A Scratch is a single-goroutine arena; ComputeScratch recycles
// it, so the Info it returns is valid only until the next
// Compute*Scratch call with the same Scratch. The batch driver keeps one
// Scratch per worker.
package liveness

import (
	"math/bits"

	"fastcoalesce/internal/bitset"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/reuse"
)

// Info holds the per-block live sets of one function. Query it with
// LiveIn/LiveOut, or walk a block's set with LiveInNames/LiveOutNames.
type Info struct {
	in    []bitset.Set // in[b]: live at block entry (after φ defs, excl. φ uses)
	out   []bitset.Set // out[b]: live at block exit (incl. φ args flowing out of b)
	bit   []int32      // VarID -> bit in the sets, or -1 for a non-global name
	names []ir.VarID   // bit -> VarID, increasing
}

// Scratch holds the reusable state of one liveness computation: the live
// sets themselves (arena-backed), the name-to-bit table, the traversal
// worklists, and the epoch-stamped queue membership marks. The zero value
// is ready to use.
//
// The queued marks use the generation-stamp idiom: instead of clearing a
// per-block boolean array between runs, each run bumps epoch and a block
// counts as queued only when queued[b] equals the current epoch. Stale
// stamps from earlier runs are always smaller and never collide (the
// array is wiped on the 2^32-run wraparound).
type Scratch struct {
	arena  bitset.Arena
	info   Info
	ueVar  []bitset.Set
	defs   []bitset.Set
	order  []ir.BlockID
	state  []uint8
	frames []dfsFrame

	queue  []ir.BlockID
	queued []uint32 // fc:stamp epoch
	epoch  uint32   // fc:epoch

	stats Stats
}

// Stats describes the work of the last Compute*Scratch call on this
// Scratch — the observable behind the worklist solver's efficiency
// claim. Visits/Blocks near 1.0 means most blocks reached their fixpoint
// in one evaluation; the round-robin oracle reports sweeps × blocks. The
// batch driver surfaces the totals as the
// fastcoalesce_liveness_visits_total metric.
type Stats struct {
	Blocks int // reachable blocks seen by the run
	Visits int // block evaluations until the fixpoint
}

// LastStats returns the statistics of the most recent computation.
func (sc *Scratch) LastStats() Stats { return sc.stats }

// Compute runs the worklist solver to fixpoint. The returned Info is
// freshly allocated and owned by the caller.
func Compute(f *ir.Func) *Info {
	return ComputeScratch(f, &Scratch{})
}

// ComputeScratch runs the worklist solver to fixpoint, reusing sc's
// memory. The returned Info aliases sc and is invalidated by the next
// Compute*Scratch call with the same Scratch. A warm Scratch makes the
// whole computation allocation-free.
//
// fc:hotpath
func ComputeScratch(f *ir.Func, sc *Scratch) *Info {
	li, order := sc.prepare(f)

	// The φ contribution to Out is static: argument i of a φ in block s
	// is live-out of s's i-th predecessor no matter what the fixpoint
	// does, so it is seeded once instead of being re-discovered on every
	// visit. Only reachable predecessors receive sets (sc.state marks
	// reachability after prepare).
	for _, bid := range order {
		b := f.Blocks[bid]
		for j := range b.Instrs {
			in := &b.Instrs[j]
			if in.Op != ir.OpPhi {
				break
			}
			for pi, a := range in.Args {
				p := b.Preds[pi]
				if sc.state[p] != 0 {
					li.out[p].Add(int(li.bit[a]))
				}
			}
		}
	}

	// Worklist, seeded with every reachable block in postorder so the
	// first wave visits successors before predecessors. queued[b]==epoch
	// means b is in the queue; the queue holds at most one copy of each
	// block, so a ring buffer of nb+1 slots never overflows.
	sc.epoch++
	if sc.epoch == 0 { // uint32 wraparound: ancient stamps could collide
		clear(sc.queued[:cap(sc.queued)])
		sc.epoch = 1
	}
	epoch := sc.epoch
	// Stale stamps in reused capacity were all written under smaller
	// epochs (and make() zeroes fresh capacity), so no per-run clear is
	// needed — that is the point of the stamps.
	queued := reuse.Slice(sc.queued, len(f.Blocks))
	sc.queued = queued
	queue := reuse.Slice(sc.queue, len(order)+1)
	sc.queue = queue
	head, tail := 0, 0
	for _, b := range order {
		queued[b] = epoch
		queue[tail] = b
		tail++
	}

	sc.stats = Stats{Blocks: len(order)}
	tmp := sc.arena.New(len(li.names))
	for head != tail {
		sc.stats.Visits++
		bid := queue[head]
		head++
		if head == len(queue) {
			head = 0
		}
		queued[bid] = epoch - 1 // dequeued; may be re-queued later
		b := f.Blocks[bid]
		out := li.out[bid]
		for _, s := range b.Succs {
			out.Or(li.in[s])
		}
		// In = UEVar ∪ (Out \ Def); if it grew, the predecessors' Out
		// sets are stale and they must be revisited.
		tmp.CopyFrom(out)
		tmp.AndNot(sc.defs[bid])
		tmp.Or(sc.ueVar[bid])
		if li.in[bid].Or(tmp) {
			for _, p := range b.Preds {
				if sc.state[p] != 0 && queued[p] != epoch {
					queued[p] = epoch
					queue[tail] = p
					tail++
					if tail == len(queue) {
						tail = 0
					}
				}
			}
		}
	}
	return li
}

// ComputeRoundRobinScratch is the pre-worklist solver: it sweeps every
// block in postorder until a full pass finds no change. It computes the
// same fixpoint as ComputeScratch and is kept as the tests' differential
// oracle.
func ComputeRoundRobinScratch(f *ir.Func, sc *Scratch) *Info {
	li, order := sc.prepare(f)
	sc.stats = Stats{Blocks: len(order)}
	tmp := sc.arena.New(len(li.names))
	for changed := true; changed; {
		changed = false
		for _, bid := range order {
			sc.stats.Visits++
			bi := int(bid)
			b := f.Blocks[bi]
			out := li.out[bi]
			for _, s := range b.Succs {
				if out.Or(li.in[s]) {
					changed = true
				}
				// φ args flowing along the edge b->s. A block can appear
				// more than once in Preds (e.g. a branch whose arms both
				// target s before edge splitting), so scan all positions.
				sb := f.Blocks[s]
				for pi, p := range sb.Preds {
					if p != b.ID {
						continue
					}
					for j := range sb.Instrs {
						in := &sb.Instrs[j]
						if in.Op != ir.OpPhi {
							break
						}
						a := int(li.bit[in.Args[pi]])
						if !out.Has(a) {
							out.Add(a)
							changed = true
						}
					}
				}
			}
			// In = UEVar ∪ (Out \ Def)
			tmp.CopyFrom(out)
			tmp.AndNot(sc.defs[bi])
			tmp.Or(sc.ueVar[bi])
			if li.in[bi].Or(tmp) {
				changed = true
			}
		}
	}
	return li
}

// prepare resets sc for f, numbers f's global names, and computes the
// block-local sets shared by both solvers: empty in/out,
// upward-exposed uses, and defs, all over the global names' bits. It
// returns the Info under construction and the reachable blocks in
// postorder; afterwards sc.state[b] != 0 marks b reachable from the
// entry.
func (sc *Scratch) prepare(f *ir.Func) (*Info, []ir.BlockID) {
	nb := len(f.Blocks)
	li := &sc.info
	li.numberGlobals(f)
	nw := len(li.names)

	sc.arena.Reset()
	li.in = reuse.Slice(li.in, nb)
	li.out = reuse.Slice(li.out, nb)
	ueVar := reuse.Slice(sc.ueVar, nb) // upward-exposed uses (excl. φ args)
	defs := reuse.Slice(sc.defs, nb)   // globals defined in block (incl. φ defs)
	sc.ueVar, sc.defs = ueVar, defs
	for i := 0; i < nb; i++ {
		li.in[i] = sc.arena.New(nw)
		li.out[i] = sc.arena.New(nw)
		ueVar[i] = sc.arena.New(nw)
		defs[i] = sc.arena.New(nw)
	}

	bit := li.bit
	for _, b := range f.Blocks {
		ue, df := ueVar[b.ID], defs[b.ID]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpPhi {
				for _, a := range in.Args {
					if k := int(bit[a]); k >= 0 && !df.Has(k) {
						ue.Add(k)
					}
				}
			}
			if in.Op.HasDef() {
				if k := int(bit[in.Def]); k >= 0 {
					df.Add(k)
				}
			}
		}
	}
	return li, postorder(f, sc)
}

// numberGlobals finds f's global names — upward-exposed in some block, or
// a φ argument — and numbers them in increasing VarID order, filling the
// VarID -> bit table (-1 for every other name) and the bit -> VarID list
// in li's reused memory.
//
// The scan keeps one int32 per name in the table itself: 0 while the name
// is unseen, b+1 while b is the block that last defined it, -1 once it is
// global. A use in block b of a name not defined earlier in b is
// upward-exposed; blocks are scanned one at a time, so an entry equal to
// b+1 can only have been written by an earlier instruction of b.
//
// fc:hotpath
func (li *Info) numberGlobals(f *ir.Func) {
	bit := reuse.Zeroed(li.bit, f.NumVars())
	for _, b := range f.Blocks {
		here := int32(b.ID) + 1
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, a := range in.Args {
				if in.Op == ir.OpPhi || bit[a] != here {
					bit[a] = -1
				}
			}
			if in.Op.HasDef() && bit[in.Def] >= 0 {
				bit[in.Def] = here
			}
		}
	}
	names := li.names[:0]
	for v, k := range bit {
		if k < 0 {
			bit[v] = int32(len(names))
			names = append(names, ir.VarID(v))
		} else {
			bit[v] = -1
		}
	}
	li.bit, li.names = bit, names
}

type dfsFrame struct {
	b ir.BlockID
	i int
}

// postorder returns the blocks of f in a depth-first postorder from the
// entry, reusing sc's traversal state. On return sc.state[b] != 0 exactly
// when b is reachable.
func postorder(f *ir.Func, sc *Scratch) []ir.BlockID {
	n := len(f.Blocks)
	out := reuse.Slice(sc.order, n)[:0]
	state := reuse.Zeroed(sc.state, n)
	stack := append(sc.frames[:0], dfsFrame{f.Entry, 0})
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
		out = append(out, fr.b)
		stack = stack[:len(stack)-1]
	}
	sc.order, sc.state, sc.frames = out, state, stack[:0]
	return out
}

// LiveIn reports whether v is live at entry to block b.
func (li *Info) LiveIn(b ir.BlockID, v ir.VarID) bool {
	k := li.bit[v]
	return k >= 0 && li.in[b].Has(int(k))
}

// LiveOut reports whether v is live at exit from block b.
func (li *Info) LiveOut(b ir.BlockID, v ir.VarID) bool {
	k := li.bit[v]
	return k >= 0 && li.out[b].Has(int(k))
}

// LiveInNames returns an iterator over the names live at entry to b.
func (li *Info) LiveInNames(b ir.BlockID) Names {
	return Names{set: li.in[b], names: li.names}
}

// LiveOutNames returns an iterator over the names live at exit from b.
func (li *Info) LiveOutNames(b ir.BlockID) Names {
	return Names{set: li.out[b], names: li.names}
}

// Names iterates one live set in increasing VarID order:
//
//	it := li.LiveOutNames(b)
//	for v, ok := it.Next(); ok; v, ok = it.Next() { ... }
//
// It is a value that allocates nothing, and is valid as long as the Info
// it came from.
type Names struct {
	set   bitset.Set
	names []ir.VarID
	wi    int    // next word of set to load
	w     uint64 // members of word wi-1 not yet returned
}

// Next returns the next live name, or false once the set is exhausted.
func (it *Names) Next() (ir.VarID, bool) {
	for it.w == 0 {
		if it.wi == len(it.set) {
			return ir.NoVar, false
		}
		it.w = it.set[it.wi]
		it.wi++
	}
	k := (it.wi-1)<<6 + bits.TrailingZeros64(it.w)
	it.w &= it.w - 1
	return it.names[k], true
}
