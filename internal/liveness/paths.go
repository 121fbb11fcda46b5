package liveness

import (
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/reuse"
)

// Path exploration (Boissinot et al., "Computing Liveness Sets for
// SSA-Form Programs", 2011) solves the same equations as ComputeScratch
// one name at a time: from every upward-exposed use of a name, and from
// the predecessor ending every edge that carries it into a φ, walk up
// through reachable predecessors, marking the name live-out of each
// block reached and live-in too unless that block defines it. The walk
// for one name touches only the blocks where the name is live, so its
// cost is the size of the answer rather than blocks × names, and the
// answer is kept as per-block name lists instead of names-wide bitsets.
// In SSA form few names are live at any block, so the lists are far
// smaller than the sets; on pre-SSA and destructed code the bitset
// solver is the faster one (EXPERIMENTS.md, "Substrate-solver
// crossovers"), which is why New's destruction alone runs this solver.
//
// Nothing here assumes SSA form: a name defined in several blocks stops
// the walk at each of them, and blocks unreachable from the entry keep
// empty lists, so ComputePathsScratch equals ComputeScratch on every
// input, name for name and block for block.

// ListInfo holds the per-block live sets of one function as lists: one
// flat buffer of names in which every block owns a live-in run and a
// live-out run, each in increasing VarID order. Query it with LiveIn and
// LiveOut, which search the run, or read a run with LiveInNames and
// LiveOutNames.
type ListInfo struct {
	// off[2b:2b+2] bounds block b's live-in run and off[2b+1:2b+3] its
	// live-out run in names.
	off   []int32
	names []ir.VarID
}

// PathScratch holds the reusable state of one path-exploration solve:
// the result's buffers, each name's def, use and φ-edge sites, and the
// per-block marks of the walk. The zero value is ready to use, and a
// warm PathScratch makes the solve allocation-free. The reachability
// and walk marks are generation stamps (see Scratch), so they are not
// cleared between names or calls; the scan's two names-wide tables are
// cleared on every call instead, which keeps them one int32 per name.
type PathScratch struct {
	info ListInfo

	// The site scan: defAt[v] is b+1 for the block b that last defined
	// name v, or 0 while no scanned block has. Only the blocks that
	// defined v before the last one become sites, so an SSA name's
	// single definition costs no site.
	defAt  []int32
	events []siteEvent
	first  []int32 // name -> start of its sites in sites; first[nv] ends the last
	sites  []site  // every name's sites, grouped by name

	// A block is reachable when its reach stamp equals solveGen.
	reach    []uint32 // fc:stamp solveGen
	solveGen uint32   // fc:epoch

	// The reachable blocks in visit order, and each one's reachable
	// predecessors: preds[predOff[b]:predOff[b+1]].
	order   []ir.BlockID
	predOff []int32
	preds   []ir.BlockID

	// The walk of the current name: block b is marked live-in, live-out
	// and defining when marks[3b], marks[3b+1] and marks[3b+2] equal
	// nameGen; the three sit side by side so that one visit reads one
	// cache line.
	marks   []uint32 // fc:stamp nameGen
	nameGen uint32   // fc:epoch

	// Each walked name's live-in blocks (the walk's own worklist) and
	// live-out blocks, name after name, and where each name's blocks end.
	inBlocks  []ir.BlockID
	outBlocks []ir.BlockID
	runs      []nameRun

	stats Stats
}

// A site is a block and what a name does there, packed as block<<2|kind.
type site int32

const (
	siteDef   site = iota // the block defines the name (not its last defining block)
	siteUse               // the block uses the name before defining it
	sitePhiIn             // the block ends an edge carrying the name into a φ
)

func makeSite(b ir.BlockID, kind site) site { return site(b)<<2 | kind }

func (s site) block() ir.BlockID { return ir.BlockID(s >> 2) }
func (s site) kind() site        { return s & 3 }

type siteEvent struct {
	v ir.VarID
	s site
}

// nameRun ends one walked name's blocks in inBlocks and outBlocks.
type nameRun struct {
	v             ir.VarID
	inEnd, outEnd int32
}

// LastStats returns the statistics of the most recent solve: Blocks is
// the reachable blocks, Visits the (name, block) pairs the walks
// entered, one per block where a name is live-in.
func (sc *PathScratch) LastStats() Stats { return sc.stats }

// ComputePathsScratch solves liveness by path exploration, reusing sc's
// memory. It answers exactly as ComputeScratch does on every input. The
// returned ListInfo aliases sc and is invalidated by the next call with
// the same PathScratch.
//
// fc:hotpath
func ComputePathsScratch(f *ir.Func, sc *PathScratch) *ListInfo {
	nv, nb := f.NumVars(), len(f.Blocks)
	sc.scanSites(f)
	sc.groupSites(nv)
	sc.reachablePreds(f)

	sc.marks = reuse.Slice(sc.marks, 3*nb)
	li := &sc.info
	// Block b's live-in count accumulates in off[2b+2] and its live-out
	// count in off[2b+3], so after the prefix sum off[k+1] is the start
	// of run k and serves as its fill cursor (see fillRuns).
	li.off = reuse.Zeroed(li.off, 2*nb+2)
	sc.walk()
	sc.fillRuns()
	sc.stats = Stats{Blocks: len(sc.order), Visits: len(sc.inBlocks)}
	return li
}

// scanSites visits the blocks reachable from the entry, stamping them in
// reach and listing them in order, and records every site of every name
// in them in events. A use is a site only when it precedes the name's
// definitions in its block; φ arguments are used on their edges, not in
// the φ's block.
func (sc *PathScratch) scanSites(f *ir.Func) {
	nb := len(f.Blocks)
	defAt := reuse.Zeroed(sc.defAt, f.NumVars())
	sc.reach = reuse.Slice(sc.reach, nb)
	reach := sc.reach
	sc.solveGen++
	if sc.solveGen == 0 { // uint32 wraparound: ancient stamps could collide
		clear(reach[:cap(reach)])
		sc.solveGen = 1
	}
	rg := sc.solveGen
	events := sc.events[:0]
	order := append(sc.order[:0], f.Entry)
	reach[f.Entry] = rg
	for next := 0; next < len(order); next++ {
		blk := f.Blocks[order[next]]
		// Blocks are scanned one at a time, so defAt[v] == here only
		// after a definition of v earlier in this block.
		here := int32(blk.ID) + 1
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if in.Op == ir.OpPhi {
				for pi, a := range in.Args {
					events = append(events, siteEvent{a, makeSite(blk.Preds[pi], sitePhiIn)})
				}
			} else {
				for _, a := range in.Args {
					if defAt[a] != here {
						events = append(events, siteEvent{a, makeSite(blk.ID, siteUse)})
					}
				}
			}
			if d := in.Def; in.Op.HasDef() && defAt[d] != here {
				if k := defAt[d]; k != 0 {
					events = append(events, siteEvent{d, makeSite(ir.BlockID(k-1), siteDef)})
				}
				defAt[d] = here
			}
		}
		for _, s := range blk.Succs {
			if reach[s] != rg {
				reach[s] = rg
				order = append(order, s)
			}
		}
	}
	sc.defAt, sc.events, sc.order = defAt, events, order
}

// reachablePreds lists each reachable block's reachable predecessors in
// one flat buffer, so a walk reads no Block and never meets a block the
// solve must ignore.
func (sc *PathScratch) reachablePreds(f *ir.Func) {
	predOff := reuse.Slice(sc.predOff, len(f.Blocks)+1)
	preds := sc.preds[:0]
	reach, rg := sc.reach, sc.solveGen
	for _, b := range f.Blocks {
		predOff[b.ID] = int32(len(preds))
		if reach[b.ID] != rg {
			continue
		}
		for _, p := range b.Preds {
			if reach[p] == rg {
				preds = append(preds, p)
			}
		}
	}
	predOff[len(f.Blocks)] = int32(len(preds))
	sc.predOff, sc.preds = predOff, preds
}

// groupSites sorts the scanned sites by name with a counting sort, so
// name v's sites are sites[first[v]:first[v+1]].
func (sc *PathScratch) groupSites(nv int) {
	first := reuse.Zeroed(sc.first, nv+2)
	for _, e := range sc.events {
		first[e.v+2]++
	}
	for v := 2; v < len(first); v++ {
		first[v] += first[v-1]
	}
	sites := reuse.Slice(sc.sites, len(sc.events))
	for _, e := range sc.events {
		sites[first[e.v+1]] = e.s
		first[e.v+1]++
	}
	sc.first, sc.sites = first[:nv+1], sites
}

// walk explores the paths of every name with sites, in increasing VarID
// order, from its sites: it appends the blocks where the name is live-in
// to inBlocks and those where it is live-out to outBlocks, counts both
// per block in the result's offsets, and ends each name's blocks with a
// nameRun.
func (sc *PathScratch) walk() {
	rg := sc.solveGen
	marks, reach, off := sc.marks, sc.reach, sc.info.off
	preds, predOff := sc.preds, sc.predOff
	first, sites, defAt := sc.first, sc.sites, sc.defAt
	in, out, runs := sc.inBlocks[:0], sc.outBlocks[:0], sc.runs[:0]
	for v := range len(first) - 1 {
		vs := sites[first[v]:first[v+1]]
		if len(vs) == 0 {
			continue
		}
		sc.nameGen++
		if sc.nameGen == 0 {
			clear(marks[:cap(marks)])
			sc.nameGen = 1
		}
		g := sc.nameGen
		if k := defAt[v]; k != 0 {
			marks[3*(k-1)+2] = g
		}
		for _, s := range vs {
			if s.kind() == siteDef {
				marks[3*s.block()+2] = g
			}
		}
		start, outStart := len(in), len(out)
		for _, s := range vs {
			b := s.block()
			switch s.kind() {
			case siteUse: // scanned blocks are all reachable
				if marks[3*b] != g {
					marks[3*b] = g
					off[2*b+2]++
					in = append(in, b)
				}
			case sitePhiIn:
				if reach[b] == rg && marks[3*b+1] != g {
					marks[3*b+1] = g
					off[2*b+3]++
					out = append(out, b)
					if marks[3*b+2] != g && marks[3*b] != g {
						marks[3*b] = g
						off[2*b+2]++
						in = append(in, b)
					}
				}
			}
		}
		for i := start; i < len(in); i++ {
			b := in[i]
			for _, p := range preds[predOff[b]:predOff[b+1]] {
				if marks[3*p+1] != g {
					marks[3*p+1] = g
					off[2*p+3]++
					out = append(out, p)
					if marks[3*p+2] != g && marks[3*p] != g {
						marks[3*p] = g
						off[2*p+2]++
						in = append(in, p)
					}
				}
			}
		}
		if len(in) > start || len(out) > outStart {
			runs = append(runs, nameRun{v: ir.VarID(v), inEnd: int32(len(in)), outEnd: int32(len(out))})
		}
	}
	sc.inBlocks, sc.outBlocks, sc.runs = in, out, runs
}

// fillRuns turns the per-block counts in off into run bounds and copies
// every walked name into the runs of its blocks. Names were walked in
// increasing VarID order, so every run comes out sorted.
func (sc *PathScratch) fillRuns() {
	li := &sc.info
	off := li.off
	for k := 2; k < len(off); k++ {
		off[k] += off[k-1]
	}
	names := reuse.Slice(li.names, int(off[len(off)-1]))
	in, out := 0, 0
	for _, r := range sc.runs {
		for ; in < int(r.inEnd); in++ {
			k := 2*sc.inBlocks[in] + 1
			names[off[k]] = r.v
			off[k]++
		}
		for ; out < int(r.outEnd); out++ {
			k := 2*sc.outBlocks[out] + 2
			names[off[k]] = r.v
			off[k]++
		}
	}
	li.off, li.names = off[:len(off)-1], names
}

// LiveIn reports whether v is live at entry to block b.
func (li *ListInfo) LiveIn(b ir.BlockID, v ir.VarID) bool {
	return contains(li.names[li.off[2*b]:li.off[2*b+1]], v)
}

// LiveOut reports whether v is live at exit from block b.
func (li *ListInfo) LiveOut(b ir.BlockID, v ir.VarID) bool {
	return contains(li.names[li.off[2*b+1]:li.off[2*b+2]], v)
}

// LiveInNames returns the names live at entry to b, in increasing VarID
// order. The slice aliases li and must not be modified.
func (li *ListInfo) LiveInNames(b ir.BlockID) []ir.VarID {
	return li.names[li.off[2*b]:li.off[2*b+1]:li.off[2*b+1]]
}

// LiveOutNames returns the names live at exit from b, in increasing
// VarID order. The slice aliases li and must not be modified.
func (li *ListInfo) LiveOutNames(b ir.BlockID) []ir.VarID {
	return li.names[li.off[2*b+1]:li.off[2*b+2]:li.off[2*b+2]]
}

// contains reports whether the sorted run holds v, by binary search.
// It is written out because slices.BinarySearch took 1.5× as long on
// runs of this length, and the forest walk asks many times per class.
func contains(run []ir.VarID, v ir.VarID) bool {
	lo, hi := 0, len(run)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if run[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(run) && run[lo] == v
}
