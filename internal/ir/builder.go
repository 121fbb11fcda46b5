package ir

import (
	"strconv"

	"fastcoalesce/internal/reuse"
)

// Builder provides convenience emitters for constructing IR. It tracks a
// current block; Emit* methods append to it.
//
// The Builder stages what it builds. The blocks' instructions are laid
// out one block after another in a staging array, the current block's
// growing in place at its end, and leaving a block (SetBlock) caps its
// slice; argument, successor and predecessor lists and the blocks
// themselves are carved from staging slabs, each slice capped in the
// same way, so a pass that appends to one reallocates instead of
// overwriting its neighbour. Seal then moves the finished function into
// exact-size storage of its own, one allocation per kind, and leaves the
// staging memory to the next Reset. A function that is never sealed
// keeps using its Builder's staging memory, which is sound as long as
// that Builder is not Reset. The underlying Func may be edited directly,
// the current block through Cur.Instrs; a pointer Emit returned is valid
// until the builder leaves the block.
type Builder struct {
	Func *Func
	Cur  *Block

	stage []Instr // the staging array; the current block starts at start
	start int

	args   reuse.Slab[VarID]
	edges  reuse.Slab[BlockID]
	blocks reuse.Slab[Block]
	list   []*Block // staging for Func.Blocks, reused across Seals
	names  []string // staging for Func.VarNames, reused across Seals
	named  NameBuf  // the names NewVar gives, installed by Seal
}

// NewBuilder returns a Builder positioned at f's entry block.
func NewBuilder(f *Func) *Builder {
	bld := &Builder{}
	bld.Reset(f)
	return bld
}

// Reset starts building f on bld's staging memory and positions the
// builder at f's entry block, creating it when f has no blocks. Whatever
// bld built before must have been sealed or dropped.
func (bld *Builder) Reset(f *Func) {
	bld.Func, bld.Cur = f, nil
	bld.start = 0
	bld.args.Reset()
	bld.edges.Reset()
	bld.blocks.Reset()
	bld.named.Reset()
	if cap(bld.list) > 0 {
		f.Blocks = append(bld.list[:0], f.Blocks...)
	}
	if cap(bld.names) > 0 {
		f.VarNames = append(bld.names[:0], f.VarNames...)
	}
	if len(f.Blocks) == 0 {
		f.Entry = bld.NewBlock().ID
	}
	bld.SetBlock(f.Blocks[f.Entry])
}

// SetBlock repositions the builder at b, whose instructions, if it has
// any, move to the end of the staging array.
//
// fc:hotpath
func (bld *Builder) SetBlock(b *Block) {
	bld.leave()
	bld.Cur = b
	if len(b.Instrs) > 0 && len(bld.stage)-bld.start <= len(b.Instrs) {
		bld.grow(len(b.Instrs) + 1)
		return
	}
	b.Instrs = append(bld.stage[bld.start:bld.start], b.Instrs...)
}

// leave caps the current block's instructions and, when they are still
// where the builder put them, starts the next block after them.
func (bld *Builder) leave() {
	b := bld.Cur
	if b == nil {
		return
	}
	bld.Cur = nil
	n := len(b.Instrs)
	if n == 0 {
		b.Instrs = nil
		return
	}
	if bld.start < len(bld.stage) && &b.Instrs[0] == &bld.stage[bld.start] {
		bld.start += n
	}
	b.Instrs = b.Instrs[:n:n]
}

// Grow makes room for at least n more instructions in the staging
// array, so a caller that can estimate how many it will emit stages them
// in one allocation.
//
// fc:hotpath
func (bld *Builder) Grow(n int) {
	if len(bld.stage)-bld.start-len(bld.Cur.Instrs) < n {
		bld.grow(n)
	}
}

// minStage is the least length of a staging array.
const minStage = 32

// grow moves the current block's instructions to the start of a fresh
// staging array, with room for more instructions, twice as long as the
// last at least. The blocks already left keep their instructions in the
// old one.
func (bld *Builder) grow(more int) {
	b := bld.Cur
	stage := make([]Instr, max(2*len(bld.stage), len(b.Instrs)+more, minStage))
	b.Instrs = append(stage[:0], b.Instrs...)
	bld.stage, bld.start = stage, 0
}

// NewBlock creates a fresh block (without repositioning the builder).
//
// fc:hotpath
func (bld *Builder) NewBlock() *Block {
	f := bld.Func
	b := bld.blocks.New()
	b.ID = BlockID(len(f.Blocks))
	f.Blocks = append(f.Blocks, b)
	return b
}

// Seal ends the construction of bld.Func: the names NewVar gave are
// installed, and its blocks, instructions, argument and edge lists,
// block list and name table move to exact-size storage of their own
// (see packBlocks). A staging array or name table of more than
// keepStage entries becomes the function's own instead, its slices
// capped all the same, so a large function is not held twice; bld's
// other staging memory is left for the next Reset. Block pointers taken
// before Seal refer to the staging copies, which the next Reset reuses;
// the builder has no current block afterwards.
//
// fc:hotpath
func (bld *Builder) Seal() {
	f := bld.Func
	bld.leave()
	bld.named.Flush(f)
	list, names := f.Blocks, f.VarNames
	own := len(bld.stage) > keepStage
	f.Blocks = packBlocks(list, !own)
	if own {
		bld.stage, bld.start = nil, 0
	}
	bld.Func, bld.list, bld.names = nil, nil, nil
	if cap(names) > keepStage {
		f.VarNames = names[:len(names):len(names)]
	} else {
		f.VarNames = append(make([]string, 0, len(names)), names...)
		clear(names)
		bld.names = names[:0]
	}
	if cap(list) <= keepStage {
		clear(list)
		bld.list = list[:0]
	}
	bld.args.Reset()
	bld.edges.Reset()
	bld.blocks.Reset()
}

// keepStage bounds the staging a Builder keeps across Seal, in
// instructions, names or blocks: a larger function's staging array,
// name table or block list goes with it, rather than staying resident
// until the next function as large.
const keepStage = 2048

// NewVar creates a scalar variable named name, as Func.NewVar does, but
// writes a name that needs storage, a non-empty one or a default name
// past Func.NewVar's table, to the builder's name buffer: such names
// read as "" until Seal installs them, all in one string.
//
// fc:hotpath
func (bld *Builder) NewVar(name string) VarID {
	f, nb := bld.Func, &bld.named
	id := VarID(len(f.VarNames))
	switch {
	case name != "":
		return nb.NewVar(f, name)
	case int(id) < len(defaultVarNames):
		f.VarNames = append(f.VarNames, defaultVarNames[id])
		return id
	}
	nb.buf = strconv.AppendInt(append(nb.buf, 'v'), int64(id), 10)
	return nb.add(f)
}

// Emit appends a raw instruction to the current block.
//
// fc:hotpath
func (bld *Builder) Emit(in Instr) *Instr {
	b := bld.Cur
	if len(b.Instrs) == cap(b.Instrs) {
		bld.grow(len(b.Instrs) + 1)
	}
	b.Instrs = append(b.Instrs, in)
	return &b.Instrs[len(b.Instrs)-1]
}

// argList returns a fresh argument list holding vs, carved from the
// argument slab.
func (bld *Builder) argList(vs ...VarID) []VarID {
	a := bld.args.Take(len(vs))
	copy(a, vs)
	return a
}

// addEdge records the CFG edge b->s, carving both lists' storage from
// the edge slab.
func (bld *Builder) addEdge(b, s *Block, room int) {
	b.Succs = bld.appendEdge(b.Succs, s.ID, room)
	s.Preds = bld.appendEdge(s.Preds, b.ID, 2)
}

// appendEdge appends id to list, first moving a full list to the edge
// slab with room for that many more.
func (bld *Builder) appendEdge(list []BlockID, id BlockID, room int) []BlockID {
	if len(list) == cap(list) {
		list = append(bld.edges.Take(len(list) + room)[:0], list...)
	}
	return append(list, id)
}

// Const emits d = c.
//
// fc:hotpath
func (bld *Builder) Const(d VarID, c int64) {
	bld.Emit(Instr{Op: OpConst, Def: d, Const: c})
}

// Copy emits d = s.
//
// fc:hotpath
func (bld *Builder) Copy(d, s VarID) {
	bld.Emit(Instr{Op: OpCopy, Def: d, Args: bld.argList(s)})
}

// Param emits d = param #idx.
//
// fc:hotpath
func (bld *Builder) Param(d VarID, idx int) {
	bld.Emit(Instr{Op: OpParam, Def: d, Const: int64(idx)})
}

// Binop emits d = a op b.
//
// fc:hotpath
func (bld *Builder) Binop(op Op, d, a, b VarID) {
	bld.Emit(Instr{Op: op, Def: d, Args: bld.argList(a, b)})
}

// Unop emits d = op a.
//
// fc:hotpath
func (bld *Builder) Unop(op Op, d, a VarID) {
	bld.Emit(Instr{Op: op, Def: d, Args: bld.argList(a)})
}

// ALoad emits d = arr[idx].
//
// fc:hotpath
func (bld *Builder) ALoad(d VarID, arr ArrID, idx VarID) {
	bld.Emit(Instr{Op: OpALoad, Def: d, Args: bld.argList(idx), Arr: arr})
}

// AStore emits arr[idx] = v.
//
// fc:hotpath
func (bld *Builder) AStore(arr ArrID, idx, v VarID) {
	bld.Emit(Instr{Op: OpAStore, Args: bld.argList(idx, v), Arr: arr})
}

// ALen emits d = len(arr).
//
// fc:hotpath
func (bld *Builder) ALen(d VarID, arr ArrID) {
	bld.Emit(Instr{Op: OpALen, Def: d, Arr: arr})
}

// Jmp terminates the current block with an unconditional branch to t and
// records the CFG edge.
//
// fc:hotpath
func (bld *Builder) Jmp(t *Block) {
	bld.Emit(Instr{Op: OpJmp})
	bld.addEdge(bld.Cur, t, 1)
}

// Br terminates the current block with a conditional branch: if cond != 0
// control flows to yes, otherwise to no.
//
// fc:hotpath
func (bld *Builder) Br(cond VarID, yes, no *Block) {
	bld.Emit(Instr{Op: OpBr, Args: bld.argList(cond)})
	bld.addEdge(bld.Cur, yes, 2)
	bld.addEdge(bld.Cur, no, 1)
}

// Ret terminates the current block with a return of v.
//
// fc:hotpath
func (bld *Builder) Ret(v VarID) {
	bld.Emit(Instr{Op: OpRet, Args: bld.argList(v)})
}

// Phi prepends d = φ(args...) to block b. Arguments align with b.Preds.
func Phi(b *Block, d VarID, args []VarID) {
	b.Instrs = append(b.Instrs, Instr{})
	copy(b.Instrs[1:], b.Instrs)
	b.Instrs[0] = Instr{Op: OpPhi, Def: d, Args: args}
}
