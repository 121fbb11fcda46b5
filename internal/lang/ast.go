// Package lang implements the kernel language front end: a lexer,
// recursive-descent parser, and lowering pass that turn source text into
// ir.Funcs ready for SSA construction. A file holds one or more
// functions; each function takes int scalars and []int arrays and returns
// an int — deliberately the shape of the Fortran kernels in the paper's
// test suite (loop nests over arrays with scalar reductions).
//
// The entry points are Compile (all functions in a file) and CompileOne
// (exactly one). Both are pure functions of the source text, safe to call
// concurrently — the batch driver parses on worker goroutines.
package lang

// File is a parsed source file.
type File struct {
	Funcs []*FuncDecl
}

// Type is a kernel-language type.
type Type int

// The two kernel-language types.
const (
	TypeInt Type = iota
	TypeArray
)

func (t Type) String() string {
	if t == TypeArray {
		return "[]int"
	}
	return "int"
}

// FuncDecl is a function declaration.
type FuncDecl struct {
	Pos    Pos
	Name   string
	Params []Param
	Body   *BlockStmt

	nodes int // AST nodes in the body, the lowering's size estimate
}

// Param is one formal parameter.
type Param struct {
	Pos  Pos
	Name string
	Type Type
}

// Stmt is implemented by all statement nodes.
type Stmt interface{ stmtNode() }

// BlockStmt is a brace-delimited statement list and scope.
type BlockStmt struct {
	Pos   Pos
	Stmts []Stmt
}

// VarDecl declares a scalar with an optional initializer.
type VarDecl struct {
	Pos  Pos
	Name string
	Init Expr // may be nil (zero)
}

// AssignStmt assigns to a scalar or an array element.
type AssignStmt struct {
	Pos   Pos
	Name  string
	Index Expr // nil for scalar assignment
	Value Expr
}

// IfStmt is a conditional with an optional else branch.
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Then *BlockStmt
	Else Stmt // *BlockStmt, *IfStmt, or nil
}

// ForStmt is a three-clause loop; Init and Post may be nil.
type ForStmt struct {
	Pos  Pos
	Init Stmt // *AssignStmt or *VarDecl, or nil
	Cond Expr // nil means forever (must exit via return)
	Post Stmt // *AssignStmt or nil
	Body *BlockStmt
}

// WhileStmt loops while Cond is nonzero.
type WhileStmt struct {
	Pos  Pos
	Cond Expr
	Body *BlockStmt
}

// ReturnStmt returns a value.
type ReturnStmt struct {
	Pos   Pos
	Value Expr
}

// BreakStmt exits the innermost loop.
type BreakStmt struct {
	Pos Pos
}

// ContinueStmt jumps to the innermost loop's next iteration (running the
// post clause of a three-clause for).
type ContinueStmt struct {
	Pos Pos
}

func (*BlockStmt) stmtNode()    {}
func (*VarDecl) stmtNode()      {}
func (*AssignStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}

// Expr is implemented by all expression nodes.
type Expr interface {
	exprNode()
	pos() Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Pos_ Pos
	Val  int64
}

// Ident is a scalar variable reference.
type Ident struct {
	Pos_ Pos
	Name string
}

// IndexExpr reads an array element.
type IndexExpr struct {
	Pos_  Pos
	Name  string
	Index Expr
}

// LenExpr is len(array).
type LenExpr struct {
	Pos_ Pos
	Name string
}

// UnaryExpr is -x or !x.
type UnaryExpr struct {
	Pos_ Pos
	Op   tokKind // tokMinus or tokNot
	X    Expr
}

// BinaryExpr is a binary operation, including short-circuit && and ||.
type BinaryExpr struct {
	Pos_ Pos
	Op   tokKind
	X, Y Expr
}

func (*IntLit) exprNode()     {}
func (*Ident) exprNode()      {}
func (*IndexExpr) exprNode()  {}
func (*LenExpr) exprNode()    {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}

func (e *IntLit) pos() Pos     { return e.Pos_ }
func (e *Ident) pos() Pos      { return e.Pos_ }
func (e *IndexExpr) pos() Pos  { return e.Pos_ }
func (e *LenExpr) pos() Pos    { return e.Pos_ }
func (e *UnaryExpr) pos() Pos  { return e.Pos_ }
func (e *BinaryExpr) pos() Pos { return e.Pos_ }
