// Package ir defines a small three-address intermediate representation with
// an explicit control-flow graph, in the style of the ILOC form used by the
// Rice MSCP compiler that the paper's implementation was built on.
//
// A Func is a list of Blocks; each Block holds an ordered list of Instrs and
// explicit successor/predecessor edges. Scalar variables are dense integer
// IDs (VarID); arrays are a separate, non-SSA memory space addressed by
// ArrID. φ-nodes (OpPhi) may appear only as a prefix of a block's
// instruction list, and their arguments align positionally with the block's
// predecessor list.
package ir

import (
	"fmt"
	"strconv"
)

// VarID names a scalar variable. IDs are dense, starting at 0.
// NoVar marks the absence of a variable (e.g. the Def of a store).
type VarID int32

// NoVar is the sentinel for "no variable".
const NoVar VarID = -1

// ArrID names an array (a non-SSA memory region). IDs are dense from 0.
type ArrID int32

// NoArr is the sentinel for "no array".
const NoArr ArrID = -1

// BlockID names a basic block. IDs are dense indices into Func.Blocks.
type BlockID int32

// NoBlock is the sentinel for "no block".
const NoBlock BlockID = -1

// Op is an instruction opcode.
type Op uint8

// Opcodes. OpPhi instructions must be a prefix of a block; terminators
// (OpJmp, OpBr, OpRet) must be the final instruction of a block.
const (
	OpInvalid Op = iota

	OpConst // Def = Const
	OpCopy  // Def = Args[0]
	OpPhi   // Def = φ(Args...), Args[i] flows from Preds[i]
	OpParam // Def = function parameter #Const (entry block only)

	OpAdd // Def = Args[0] + Args[1]
	OpSub // Def = Args[0] - Args[1]
	OpMul // Def = Args[0] * Args[1]
	OpDiv // Def = Args[0] / Args[1] (total: x/0 == 0)
	OpRem // Def = Args[0] % Args[1] (total: x%0 == 0)
	OpNeg // Def = -Args[0]
	OpNot // Def = 1 if Args[0] == 0 else 0

	OpCmpEQ // Def = Args[0] == Args[1]
	OpCmpNE // Def = Args[0] != Args[1]
	OpCmpLT // Def = Args[0] <  Args[1]
	OpCmpLE // Def = Args[0] <= Args[1]
	OpCmpGT // Def = Args[0] >  Args[1]
	OpCmpGE // Def = Args[0] >= Args[1]

	OpALoad  // Def = Arr[Args[0]]
	OpAStore // Arr[Args[0]] = Args[1]
	OpALen   // Def = len(Arr)

	OpJmp // unconditional branch to Succs[0]
	OpBr  // if Args[0] != 0 goto Succs[0] else Succs[1]
	OpRet // return Args[0]

	numOps
)

var opNames = [numOps]string{
	OpInvalid: "invalid",
	OpConst:   "const",
	OpCopy:    "copy",
	OpPhi:     "phi",
	OpParam:   "param",
	OpAdd:     "add",
	OpSub:     "sub",
	OpMul:     "mul",
	OpDiv:     "div",
	OpRem:     "rem",
	OpNeg:     "neg",
	OpNot:     "not",
	OpCmpEQ:   "cmpeq",
	OpCmpNE:   "cmpne",
	OpCmpLT:   "cmplt",
	OpCmpLE:   "cmple",
	OpCmpGT:   "cmpgt",
	OpCmpGE:   "cmpge",
	OpALoad:   "aload",
	OpAStore:  "astore",
	OpALen:    "alen",
	OpJmp:     "jmp",
	OpBr:      "br",
	OpRet:     "ret",
}

// String returns the mnemonic for op.
func (op Op) String() string {
	if op >= numOps {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opNames[op]
}

// IsTerminator reports whether op ends a basic block.
func (op Op) IsTerminator() bool {
	return op == OpJmp || op == OpBr || op == OpRet
}

// HasDef reports whether instructions with this opcode define a variable.
func (op Op) HasDef() bool {
	switch op {
	case OpAStore, OpJmp, OpBr, OpRet, OpInvalid:
		return false
	}
	return true
}

// Instr is a single three-address instruction.
type Instr struct {
	Op    Op
	Def   VarID   // defined variable, or NoVar
	Args  []VarID // used variables (φ args align with block preds)
	Const int64   // literal for OpConst; parameter index for OpParam
	Arr   ArrID   // array operand for OpALoad/OpAStore/OpALen
}

// Block is a basic block: a φ-node prefix, straight-line code, and a
// terminator, with explicit CFG edges.
type Block struct {
	ID     BlockID
	Instrs []Instr
	Succs  []BlockID
	Preds  []BlockID
}

// NumPhis returns the number of φ-nodes at the head of the block.
func (b *Block) NumPhis() int {
	n := 0
	for n < len(b.Instrs) && b.Instrs[n].Op == OpPhi {
		n++
	}
	return n
}

// Terminator returns the block's final instruction, or nil if the block is
// empty or unterminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := &b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// PredIndex returns the position of p in b.Preds, or -1.
func (b *Block) PredIndex(p BlockID) int {
	for i, q := range b.Preds {
		if q == p {
			return i
		}
	}
	return -1
}

// Func is a single function: a CFG over Blocks plus variable and array
// symbol tables.
type Func struct {
	Name   string
	Blocks []*Block // indexed by BlockID
	Entry  BlockID

	VarNames []string // indexed by VarID
	ArrNames []string // indexed by ArrID
	ArrLens  []int    // indexed by ArrID: local array lengths (0 for params)

	Params    []VarID // scalar parameters, defined by OpParam in entry order
	ArrParams []ArrID // array parameters

	// IsSSA marks the function as being in SSA form. ssa.Build sets it,
	// the destruction passes clear it, and Parse infers it from the
	// presence of φ-nodes. Verify applies stricter rules to SSA-flagged
	// functions (no duplicate CFG edges, single definition per name within
	// a block).
	IsSSA bool
}

// NewFunc returns an empty function with a fresh entry block.
func NewFunc(name string) *Func {
	f := &Func{Name: name}
	f.Entry = f.NewBlock().ID
	return f
}

// NumVars returns the number of scalar variables.
func (f *Func) NumVars() int { return len(f.VarNames) }

// NumArrs returns the number of arrays.
func (f *Func) NumArrs() int { return len(f.ArrNames) }

// NumBlocks returns the number of basic blocks (including dead ones).
func (f *Func) NumBlocks() int { return len(f.Blocks) }

// NewBlock appends a fresh empty block and returns it.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: BlockID(len(f.Blocks))}
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewVar creates a scalar variable with the given name; an empty name
// becomes "v" and the variable's ID.
func (f *Func) NewVar(name string) VarID {
	id := VarID(len(f.VarNames))
	if name == "" {
		if int(id) < len(defaultVarNames) {
			name = defaultVarNames[id]
		} else {
			name = "v" + strconv.Itoa(int(id))
		}
	}
	f.VarNames = append(f.VarNames, name)
	return id
}

// defaultVarNames holds the default names "v0"…"v4095", built once so
// that naming a temporary allocates nothing. It is read-only after init.
var defaultVarNames = func() (names [4096]string) {
	for i := range names {
		names[i] = "v" + strconv.Itoa(i)
	}
	return names
}()

// NewArr creates an array with the given name. Arrays listed in ArrParams
// are backed by caller-provided storage; any other array is function-local
// and sized by ArrLens (used by the register allocator's spill area).
func (f *Func) NewArr(name string) ArrID {
	id := ArrID(len(f.ArrNames))
	if name == "" {
		name = fmt.Sprintf("a%d", id)
	}
	f.ArrNames = append(f.ArrNames, name)
	f.ArrLens = append(f.ArrLens, 0)
	return id
}

// VarName returns the name of v ("_" for NoVar).
func (f *Func) VarName(v VarID) string {
	if v == NoVar {
		return "_"
	}
	return f.VarNames[v]
}

// Block returns the block with the given ID.
func (f *Func) Block(id BlockID) *Block { return f.Blocks[id] }

// AddEdge records a CFG edge from b to s, keeping Succs and Preds in sync.
// φ arguments in s, if any, must be maintained by the caller.
func (f *Func) AddEdge(b, s BlockID) {
	f.Blocks[b].Succs = append(f.Blocks[b].Succs, s)
	f.Blocks[s].Preds = append(f.Blocks[s].Preds, b)
}

// NumInstrs returns the total instruction count across all blocks.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// CountCopies returns the number of OpCopy instructions in the function.
func (f *Func) CountCopies() int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == OpCopy {
				n++
			}
		}
	}
	return n
}

// CountPhis returns the number of φ-nodes in the function.
func (f *Func) CountPhis() int {
	n := 0
	for _, b := range f.Blocks {
		n += b.NumPhis()
	}
	return n
}

// Clone returns a deep copy of f, its blocks in exact-size storage (see
// packBlocks).
//
// fc:hotpath
func (f *Func) Clone() *Func {
	return &Func{
		Name:      f.Name,
		Entry:     f.Entry,
		IsSSA:     f.IsSSA,
		Blocks:    packBlocks(f.Blocks, true),
		VarNames:  append([]string(nil), f.VarNames...),
		ArrNames:  append([]string(nil), f.ArrNames...),
		ArrLens:   append([]int(nil), f.ArrLens...),
		Params:    append([]VarID(nil), f.Params...),
		ArrParams: append([]ArrID(nil), f.ArrParams...),
	}
}

// packBlocks copies blocks into exact-size storage: one allocation each
// for the blocks, the block list, the instructions (unless instrs is
// false: each block then keeps its instruction slice, which must be
// capped and owned by the function), the argument lists and the edge
// lists. Every slice is capped at its length, so a pass that later grows
// one block's instructions, edges or arguments reallocates that slice
// alone and never writes into a neighbour's.
//
// fc:hotpath
func packBlocks(blocks []*Block, instrs bool) []*Block {
	var ni, na, ne int
	for _, b := range blocks {
		ni += len(b.Instrs)
		ne += len(b.Succs) + len(b.Preds)
		for i := range b.Instrs {
			na += len(b.Instrs[i].Args)
		}
	}
	if !instrs {
		ni = 0
	}
	bs := make([]Block, len(blocks))
	list := make([]*Block, len(blocks))
	ins := make([]Instr, ni)
	args := make([]VarID, na)
	edges := make([]BlockID, ne)
	for i, b := range blocks {
		nb := &bs[i]
		nb.ID, nb.Instrs = b.ID, b.Instrs
		if instrs {
			nb.Instrs, ins = carve(ins, b.Instrs)
		}
		for j := range nb.Instrs {
			nb.Instrs[j].Args, args = carve(args, nb.Instrs[j].Args)
		}
		nb.Succs, edges = carve(edges, b.Succs)
		nb.Preds, edges = carve(edges, b.Preds)
		list[i] = nb
	}
	return list
}

// carve copies src to the front of slab and returns the copy, capped at
// its length (nil when src is empty), and the rest of slab.
func carve[T any](slab, src []T) (dst, rest []T) {
	n := len(src)
	if n == 0 {
		return nil, slab
	}
	dst = slab[:n:n]
	copy(dst, src)
	return dst, slab[n:]
}
