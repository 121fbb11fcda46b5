package ir

// Builder provides convenience emitters for constructing IR. It tracks a
// current block; Emit* methods append to it. A Builder is a thin veneer —
// the underlying Func may also be edited directly.
//
// The emitters carve every argument list from a shared chunk instead of
// allocating one slice per instruction. Each carved slice has its
// capacity capped at its length, so a later pass that appends to one
// reallocates instead of overwriting its neighbour.
type Builder struct {
	Func *Func
	Cur  *Block
	args []VarID // the unused rest of the current argument chunk
}

// argChunk is the number of arguments one chunk holds.
const argChunk = 256

// NewBuilder returns a Builder positioned at f's entry block.
func NewBuilder(f *Func) *Builder {
	return &Builder{Func: f, Cur: f.Block(f.Entry)}
}

// SetBlock repositions the builder at b.
func (bld *Builder) SetBlock(b *Block) { bld.Cur = b }

// NewBlock creates a fresh block (without repositioning the builder).
func (bld *Builder) NewBlock() *Block { return bld.Func.NewBlock() }

// Emit appends a raw instruction to the current block.
func (bld *Builder) Emit(in Instr) *Instr {
	bld.Cur.Instrs = append(bld.Cur.Instrs, in)
	return &bld.Cur.Instrs[len(bld.Cur.Instrs)-1]
}

// argList returns a fresh argument list holding vs, carved from the
// chunk.
func (bld *Builder) argList(vs ...VarID) []VarID {
	if len(bld.args) < len(vs) {
		bld.args = make([]VarID, argChunk)
	}
	a := bld.args[:len(vs):len(vs)]
	bld.args = bld.args[len(vs):]
	copy(a, vs)
	return a
}

// Const emits d = c.
func (bld *Builder) Const(d VarID, c int64) {
	bld.Emit(Instr{Op: OpConst, Def: d, Const: c})
}

// Copy emits d = s.
func (bld *Builder) Copy(d, s VarID) {
	bld.Emit(Instr{Op: OpCopy, Def: d, Args: bld.argList(s)})
}

// Param emits d = param #idx.
func (bld *Builder) Param(d VarID, idx int) {
	bld.Emit(Instr{Op: OpParam, Def: d, Const: int64(idx)})
}

// Binop emits d = a op b.
func (bld *Builder) Binop(op Op, d, a, b VarID) {
	bld.Emit(Instr{Op: op, Def: d, Args: bld.argList(a, b)})
}

// Unop emits d = op a.
func (bld *Builder) Unop(op Op, d, a VarID) {
	bld.Emit(Instr{Op: op, Def: d, Args: bld.argList(a)})
}

// ALoad emits d = arr[idx].
func (bld *Builder) ALoad(d VarID, arr ArrID, idx VarID) {
	bld.Emit(Instr{Op: OpALoad, Def: d, Args: bld.argList(idx), Arr: arr})
}

// AStore emits arr[idx] = v.
func (bld *Builder) AStore(arr ArrID, idx, v VarID) {
	bld.Emit(Instr{Op: OpAStore, Args: bld.argList(idx, v), Arr: arr})
}

// ALen emits d = len(arr).
func (bld *Builder) ALen(d VarID, arr ArrID) {
	bld.Emit(Instr{Op: OpALen, Def: d, Arr: arr})
}

// Jmp terminates the current block with an unconditional branch to t and
// records the CFG edge.
func (bld *Builder) Jmp(t *Block) {
	bld.Emit(Instr{Op: OpJmp})
	bld.Func.AddEdge(bld.Cur.ID, t.ID)
}

// Br terminates the current block with a conditional branch: if cond != 0
// control flows to yes, otherwise to no.
func (bld *Builder) Br(cond VarID, yes, no *Block) {
	bld.Emit(Instr{Op: OpBr, Args: bld.argList(cond)})
	bld.Func.AddEdge(bld.Cur.ID, yes.ID)
	bld.Func.AddEdge(bld.Cur.ID, no.ID)
}

// Ret terminates the current block with a return of v.
func (bld *Builder) Ret(v VarID) {
	bld.Emit(Instr{Op: OpRet, Args: bld.argList(v)})
}

// Phi prepends d = φ(args...) to block b. Arguments align with b.Preds.
func Phi(b *Block, d VarID, args []VarID) {
	// Prepend by growing in place: φ insertion is hot enough in SSA
	// construction that a fresh slice per φ would dominate allocation.
	b.Instrs = append(b.Instrs, Instr{})
	copy(b.Instrs[1:], b.Instrs)
	b.Instrs[0] = Instr{Op: OpPhi, Def: d, Args: args}
}
