package lang

import (
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/reuse"
)

// Scratch holds the front end's reusable memory: the AST slabs, the
// parser, the lowerer with its symbol table, scope and loop stacks, and
// the IR builder whose staging buffers a function is lowered into before
// it is sealed into storage of its own. A compile's AST and staging are
// dead once its functions are sealed, so the next compile on the same
// Scratch reuses them; the functions it returns share nothing with it.
// The zero value is ready to use. A Scratch belongs to one goroutine;
// the batch driver keeps one per worker.
type Scratch struct {
	nodes  nodes
	parser parser
	lo     lowerer
	funcs  []*ir.Func
}

// nodes is the storage of one compile's AST: a slab per node type, one
// for statement lists and one for parameter lists, and the stacks the
// lists are gathered on while their block or header is parsed.
type nodes struct {
	file      File
	funcs     reuse.Slab[FuncDecl]
	blocks    reuse.Slab[BlockStmt]
	decls     reuse.Slab[VarDecl]
	assigns   reuse.Slab[AssignStmt]
	ifs       reuse.Slab[IfStmt]
	fors      reuse.Slab[ForStmt]
	whiles    reuse.Slab[WhileStmt]
	returns   reuse.Slab[ReturnStmt]
	breaks    reuse.Slab[BreakStmt]
	continues reuse.Slab[ContinueStmt]
	ints      reuse.Slab[IntLit]
	idents    reuse.Slab[Ident]
	indexes   reuse.Slab[IndexExpr]
	lens      reuse.Slab[LenExpr]
	unaries   reuse.Slab[UnaryExpr]
	binaries  reuse.Slab[BinaryExpr]
	stmtLists reuse.Slab[Stmt]
	parLists  reuse.Slab[Param]

	stmts  []Stmt  // statements of the blocks being parsed, innermost last
	params []Param // parameters of the header being parsed
	count  int     // nodes allocated so far
}

// newNode returns a zeroed node from slab s and counts it.
func newNode[T any](n *nodes, s *reuse.Slab[T]) *T {
	n.count++
	return s.New()
}

// reset makes every node available to the next compile.
func (n *nodes) reset() {
	n.funcs.Reset()
	n.blocks.Reset()
	n.decls.Reset()
	n.assigns.Reset()
	n.ifs.Reset()
	n.fors.Reset()
	n.whiles.Reset()
	n.returns.Reset()
	n.breaks.Reset()
	n.continues.Reset()
	n.ints.Reset()
	n.idents.Reset()
	n.indexes.Reset()
	n.lens.Reset()
	n.unaries.Reset()
	n.binaries.Reset()
	n.stmtLists.Reset()
	n.parLists.Reset()
	clear(n.stmts[:cap(n.stmts)])
	clear(n.file.Funcs)
	n.stmts, n.params, n.count = n.stmts[:0], n.params[:0], 0
}

// stmtList moves the statements stacked from mark on into a list of
// their own (nil when there are none).
func (n *nodes) stmtList(mark int) []Stmt {
	s := n.stmts[mark:]
	if len(s) == 0 {
		return nil
	}
	l := n.stmtLists.Take(len(s))
	copy(l, s)
	n.stmts = n.stmts[:mark]
	return l
}

// paramList moves the parameters stacked from mark on into a list of
// their own (nil when there are none).
func (n *nodes) paramList(mark int) []Param {
	s := n.params[mark:]
	if len(s) == 0 {
		return nil
	}
	l := n.parLists.Take(len(s))
	copy(l, s)
	n.params = n.params[:mark]
	return l
}
