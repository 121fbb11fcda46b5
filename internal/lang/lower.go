package lang

// Lowering from the AST to the three-address IR. Symbol resolution and
// type checking happen inline: the language has only int scalars and
// []int arrays, so the checks are local.

import (
	"fmt"
	"strings"

	"fastcoalesce/internal/ir"
)

// CompileOptions controls lowering style.
type CompileOptions struct {
	// SteerDestinations lowers `x = a + b` directly into x instead of
	// computing into a temporary and copying — the output of an
	// optimizing front end. The default (false) matches the naive
	// translation the paper's ILOC front end produced: every assignment
	// materializes a copy, which is exactly the food the coalescers were
	// built for ("copy folding during SSA construction deletes all of the
	// copies in a program", §1).
	SteerDestinations bool
}

// Compile parses src and lowers every function to IR with naive
// (copy-rich) lowering.
func Compile(src string) ([]*ir.Func, error) {
	return CompileWith(src, CompileOptions{})
}

// CompileWith parses src and lowers every function to IR with the given
// options.
func CompileWith(src string, opt CompileOptions) ([]*ir.Func, error) {
	// A fresh Scratch is not reused, so its function list is the caller's.
	return compile(src, opt, &Scratch{})
}

// compile parses src into sc's AST slabs and lowers every function with
// sc's lowerer. The list it returns is sc's.
func compile(src string, opt CompileOptions, sc *Scratch) ([]*ir.Func, error) {
	// Whatever way the compile ends, the AST is reset, so the Scratch
	// holds neither a large one's memory nor the source.
	defer sc.nodes.reset()
	sc.nodes.reset()
	file, err := parse(&sc.parser, src, &sc.nodes)
	if err != nil {
		return nil, err
	}
	var seen map[string]bool
	if len(file.Funcs) > 1 {
		seen = make(map[string]bool, len(file.Funcs))
	}
	out := sc.funcs[:0]
	for i, fd := range file.Funcs {
		if seen[fd.Name] {
			return nil, errf(fd.Pos, "function %q redeclared", fd.Name)
		}
		if seen != nil {
			seen[fd.Name] = true
		}
		name := fd.Name
		if err := sc.lo.lower(fd, opt); err != nil {
			return nil, err
		}
		if i == len(file.Funcs)-1 {
			// The AST is dead: a large one can go before the function
			// is sealed into storage of its own.
			sc.nodes.reset()
		}
		f, err := sc.lo.seal(name)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	sc.funcs = out
	return out, nil
}

// CompileOne compiles a source file expected to contain exactly one
// function.
func CompileOne(src string) (*ir.Func, error) {
	return CompileOneWith(src, CompileOptions{})
}

// CompileOneWith is CompileOne with explicit options.
func CompileOneWith(src string, opt CompileOptions) (*ir.Func, error) {
	return compileOne(src, opt, &Scratch{})
}

// CompileOneScratch is CompileOne on sc's memory: the AST, the symbol
// table and the lowering staging are sc's and are reused by the next
// compile on sc, while the function returned has storage of its own. A
// nil sc compiles cold.
func CompileOneScratch(src string, sc *Scratch) (*ir.Func, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	return compileOne(src, CompileOptions{}, sc)
}

func compileOne(src string, opt CompileOptions, sc *Scratch) (*ir.Func, error) {
	fs, err := compile(src, opt, sc)
	if err != nil {
		return nil, err
	}
	if len(fs) != 1 {
		clear(fs)
		return nil, fmt.Errorf("lang: expected one function, found %d", len(fs))
	}
	f := fs[0]
	clear(fs)
	return f, nil
}

// symbol is a resolved name: exactly one of Var/Arr is meaningful.
type symbol struct {
	isArray bool
	v       ir.VarID
	a       ir.ArrID
}

// binding is one declaration in scope. shadows is the index of the
// binding of the same name it hides, or -1.
type binding struct {
	name    string
	sym     symbol
	shadows int32
}

type loopTargets struct {
	cont *ir.Block // continue jumps here (loop head or latch)
	brk  *ir.Block // break jumps here (loop exit)
}

// lowerer lowers one function at a time, into its builder's staging.
// Its symbol table maps each name to its innermost binding; the bindings
// form a stack, and marks holds the stack height at each open scope, so
// closing a scope pops its bindings and restores the ones they shadowed.
// All of it is reused from one function to the next.
type lowerer struct {
	f     *ir.Func
	bld   ir.Builder
	syms  map[string]int32
	binds []binding
	marks []int
	loops []loopTargets
	opt   CompileOptions
}

// lower lowers fd into the builder's staging; seal finishes the function.
func (lo *lowerer) lower(fd *FuncDecl, opt CompileOptions) error {
	nscalar := 0
	for _, p := range fd.Params {
		if p.Type != TypeArray {
			nscalar++
		}
	}
	lo.f = &ir.Func{
		Name:      strings.Clone(fd.Name),
		Params:    make([]ir.VarID, 0, nscalar),
		ArrParams: make([]ir.ArrID, 0, len(fd.Params)-nscalar),
		ArrNames:  make([]string, 0, len(fd.Params)-nscalar),
		ArrLens:   make([]int, 0, len(fd.Params)-nscalar),
	}
	lo.bld.Reset(lo.f)
	// The suite kernels and generated programs lower to 0.6-0.95
	// instructions per AST node; a parameter lowers to one.
	lo.bld.Grow(fd.nodes*7/8 + len(fd.Params) + 2)
	if lo.syms == nil {
		lo.syms = map[string]int32{}
	}
	clear(lo.syms)
	lo.binds, lo.marks, lo.loops, lo.opt = lo.binds[:0], lo.marks[:0], lo.loops[:0], opt
	lo.pushScope()

	scalarIdx := 0
	for _, p := range fd.Params {
		if lo.declaredInScope(p.Name) {
			return errf(p.Pos, "parameter %q redeclared", p.Name)
		}
		if p.Type == TypeArray {
			a := lo.f.NewArr(strings.Clone(p.Name))
			lo.f.ArrParams = append(lo.f.ArrParams, a)
			lo.define(p.Name, symbol{isArray: true, a: a})
		} else {
			v := lo.bld.NewVar(p.Name)
			lo.f.Params = append(lo.f.Params, v)
			lo.bld.Param(v, scalarIdx)
			scalarIdx++
			lo.define(p.Name, symbol{v: v})
		}
	}

	if err := lo.block(fd.Body); err != nil {
		return err
	}
	// Implicit "return 0" if control can fall off the end.
	if lo.bld.Cur.Terminator() == nil {
		z := lo.bld.NewVar("")
		lo.bld.Const(z, 0)
		lo.bld.Ret(z)
	}
	lo.popScope()
	return nil
}

// seal removes the unreachable blocks of the function lower built, named
// name, seals it and checks it.
func (lo *lowerer) seal(name string) (*ir.Func, error) {
	f := lo.f
	lo.f = nil
	f.RemoveUnreachable()
	lo.bld.Seal()
	clear(lo.loops[:cap(lo.loops)]) // they point into the builder's staging
	if err := f.Verify(); err != nil {
		return nil, fmt.Errorf("lang: internal error lowering %s: %w", name, err)
	}
	return f, nil
}

func (lo *lowerer) pushScope() { lo.marks = append(lo.marks, len(lo.binds)) }

func (lo *lowerer) popScope() {
	mark := lo.marks[len(lo.marks)-1]
	lo.marks = lo.marks[:len(lo.marks)-1]
	for i := len(lo.binds) - 1; i >= mark; i-- {
		if b := lo.binds[i]; b.shadows >= 0 {
			lo.syms[b.name] = b.shadows
		} else {
			delete(lo.syms, b.name)
		}
	}
	lo.binds = lo.binds[:mark]
}

func (lo *lowerer) define(name string, s symbol) {
	shadows := int32(-1)
	if i, ok := lo.syms[name]; ok {
		shadows = i
	}
	lo.syms[name] = int32(len(lo.binds))
	lo.binds = append(lo.binds, binding{name: name, sym: s, shadows: shadows})
}

// declaredInScope reports whether name is bound in the innermost scope.
func (lo *lowerer) declaredInScope(name string) bool {
	i, ok := lo.syms[name]
	return ok && int(i) >= lo.marks[len(lo.marks)-1]
}

func (lo *lowerer) lookup(name string) (symbol, bool) {
	if i, ok := lo.syms[name]; ok {
		return lo.binds[i].sym, true
	}
	return symbol{}, false
}

// terminated reports whether the current block already ends control flow.
func (lo *lowerer) terminated() bool { return lo.bld.Cur.Terminator() != nil }

func (lo *lowerer) block(b *BlockStmt) error {
	lo.pushScope()
	defer lo.popScope()
	for _, st := range b.Stmts {
		if lo.terminated() {
			// Code after a return: lower into a fresh unreachable block,
			// which RemoveUnreachable deletes afterwards.
			lo.bld.SetBlock(lo.bld.NewBlock())
		}
		if err := lo.stmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (lo *lowerer) stmt(st Stmt) error {
	switch s := st.(type) {
	case *BlockStmt:
		return lo.block(s)
	case *VarDecl:
		if lo.declaredInScope(s.Name) {
			return errf(s.Pos, "%q redeclared in this scope", s.Name)
		}
		v := lo.bld.NewVar(s.Name)
		if s.Init != nil {
			if err := lo.exprInto(v, s.Init); err != nil {
				return err
			}
		} else {
			lo.bld.Const(v, 0)
		}
		lo.define(s.Name, symbol{v: v})
		return nil
	case *AssignStmt:
		return lo.assign(s)
	case *IfStmt:
		return lo.ifStmt(s)
	case *WhileStmt:
		return lo.whileStmt(s)
	case *ForStmt:
		return lo.forStmt(s)
	case *ReturnStmt:
		v, err := lo.expr(s.Value)
		if err != nil {
			return err
		}
		lo.bld.Ret(v)
		return nil
	case *BreakStmt:
		if len(lo.loops) == 0 {
			return errf(s.Pos, "break outside a loop")
		}
		lo.bld.Jmp(lo.loops[len(lo.loops)-1].brk)
		return nil
	case *ContinueStmt:
		if len(lo.loops) == 0 {
			return errf(s.Pos, "continue outside a loop")
		}
		lo.bld.Jmp(lo.loops[len(lo.loops)-1].cont)
		return nil
	}
	return fmt.Errorf("lang: unknown statement %T", st)
}

func (lo *lowerer) assign(s *AssignStmt) error {
	sym, ok := lo.lookup(s.Name)
	if !ok {
		return errf(s.Pos, "undeclared name %q", s.Name)
	}
	if s.Index != nil {
		if !sym.isArray {
			return errf(s.Pos, "%q is not an array", s.Name)
		}
		idx, err := lo.expr(s.Index)
		if err != nil {
			return err
		}
		val, err := lo.expr(s.Value)
		if err != nil {
			return err
		}
		lo.bld.AStore(sym.a, idx, val)
		return nil
	}
	if sym.isArray {
		return errf(s.Pos, "cannot assign to array %q without an index", s.Name)
	}
	return lo.exprInto(sym.v, s.Value)
}

// exprInto lowers e into destination dst. With SteerDestinations the
// result is computed directly into dst (only variable-to-variable
// assignments become copies); otherwise it is computed into a temporary
// and copied, the naive-translation shape.
func (lo *lowerer) exprInto(dst ir.VarID, e Expr) error {
	if !lo.opt.SteerDestinations {
		if _, isIdent := e.(*Ident); !isIdent {
			if lit, isLit := e.(*IntLit); isLit {
				lo.bld.Const(dst, lit.Val)
				return nil
			}
			v, err := lo.expr(e)
			if err != nil {
				return err
			}
			lo.bld.Copy(dst, v)
			return nil
		}
	}
	switch x := e.(type) {
	case *IntLit:
		lo.bld.Const(dst, x.Val)
		return nil
	case *Ident:
		v, err := lo.expr(x)
		if err != nil {
			return err
		}
		lo.bld.Copy(dst, v)
		return nil
	case *IndexExpr:
		sym, ok := lo.lookup(x.Name)
		if !ok {
			return errf(x.Pos_, "undeclared name %q", x.Name)
		}
		if !sym.isArray {
			return errf(x.Pos_, "%q is not an array", x.Name)
		}
		idx, err := lo.expr(x.Index)
		if err != nil {
			return err
		}
		lo.bld.ALoad(dst, sym.a, idx)
		return nil
	case *LenExpr:
		sym, ok := lo.lookup(x.Name)
		if !ok {
			return errf(x.Pos_, "undeclared name %q", x.Name)
		}
		if !sym.isArray {
			return errf(x.Pos_, "len of non-array %q", x.Name)
		}
		lo.bld.ALen(dst, sym.a)
		return nil
	case *UnaryExpr:
		v, err := lo.expr(x.X)
		if err != nil {
			return err
		}
		if x.Op == tokMinus {
			lo.bld.Unop(ir.OpNeg, dst, v)
		} else {
			lo.bld.Unop(ir.OpNot, dst, v)
		}
		return nil
	case *BinaryExpr:
		if x.Op == tokAndAnd || x.Op == tokOrOr {
			v, err := lo.shortCircuit(x)
			if err != nil {
				return err
			}
			lo.bld.Copy(dst, v)
			return nil
		}
		a, err := lo.expr(x.X)
		if err != nil {
			return err
		}
		b, err := lo.expr(x.Y)
		if err != nil {
			return err
		}
		lo.bld.Binop(binOps[x.Op], dst, a, b)
		return nil
	}
	v, err := lo.expr(e)
	if err != nil {
		return err
	}
	lo.bld.Copy(dst, v)
	return nil
}

func (lo *lowerer) ifStmt(s *IfStmt) error {
	cond, err := lo.expr(s.Cond)
	if err != nil {
		return err
	}
	thenB := lo.bld.NewBlock()
	var elseB *ir.Block
	join := lo.bld.NewBlock()
	if s.Else != nil {
		elseB = lo.bld.NewBlock()
		lo.bld.Br(cond, thenB, elseB)
	} else {
		lo.bld.Br(cond, thenB, join)
	}

	lo.bld.SetBlock(thenB)
	if err := lo.block(s.Then); err != nil {
		return err
	}
	if !lo.terminated() {
		lo.bld.Jmp(join)
	}

	if elseB != nil {
		lo.bld.SetBlock(elseB)
		switch e := s.Else.(type) {
		case *BlockStmt:
			err = lo.block(e)
		case *IfStmt:
			err = lo.ifStmt(e)
		default:
			err = fmt.Errorf("lang: bad else node %T", s.Else)
		}
		if err != nil {
			return err
		}
		if !lo.terminated() {
			lo.bld.Jmp(join)
		}
	}
	lo.bld.SetBlock(join)
	return nil
}

func (lo *lowerer) whileStmt(s *WhileStmt) error {
	head := lo.bld.NewBlock()
	body := lo.bld.NewBlock()
	exit := lo.bld.NewBlock()
	lo.bld.Jmp(head)
	lo.bld.SetBlock(head)
	cond, err := lo.expr(s.Cond)
	if err != nil {
		return err
	}
	lo.bld.Br(cond, body, exit)
	lo.bld.SetBlock(body)
	lo.loops = append(lo.loops, loopTargets{cont: head, brk: exit})
	err = lo.block(s.Body)
	lo.loops = lo.loops[:len(lo.loops)-1]
	if err != nil {
		return err
	}
	if !lo.terminated() {
		lo.bld.Jmp(head)
	}
	lo.bld.SetBlock(exit)
	return nil
}

func (lo *lowerer) forStmt(s *ForStmt) error {
	lo.pushScope() // the init clause may declare a variable
	defer lo.popScope()
	if s.Init != nil {
		if err := lo.stmt(s.Init); err != nil {
			return err
		}
	}
	head := lo.bld.NewBlock()
	body := lo.bld.NewBlock()
	latch := lo.bld.NewBlock() // post clause; continue lands here
	exit := lo.bld.NewBlock()
	lo.bld.Jmp(head)
	lo.bld.SetBlock(head)
	if s.Cond != nil {
		cond, err := lo.expr(s.Cond)
		if err != nil {
			return err
		}
		lo.bld.Br(cond, body, exit)
	} else {
		lo.bld.Jmp(body)
	}
	lo.bld.SetBlock(body)
	lo.loops = append(lo.loops, loopTargets{cont: latch, brk: exit})
	err := lo.block(s.Body)
	lo.loops = lo.loops[:len(lo.loops)-1]
	if err != nil {
		return err
	}
	if !lo.terminated() {
		lo.bld.Jmp(latch)
	}
	lo.bld.SetBlock(latch)
	if s.Post != nil {
		if err := lo.stmt(s.Post); err != nil {
			return err
		}
	}
	lo.bld.Jmp(head)
	lo.bld.SetBlock(exit)
	return nil
}

// expr lowers an expression and returns the variable holding its value.
func (lo *lowerer) expr(e Expr) (ir.VarID, error) {
	switch x := e.(type) {
	case *IntLit:
		t := lo.bld.NewVar("")
		lo.bld.Const(t, x.Val)
		return t, nil
	case *Ident:
		sym, ok := lo.lookup(x.Name)
		if !ok {
			return 0, errf(x.Pos_, "undeclared name %q", x.Name)
		}
		if sym.isArray {
			return 0, errf(x.Pos_, "array %q used as a scalar", x.Name)
		}
		return sym.v, nil
	case *IndexExpr:
		sym, ok := lo.lookup(x.Name)
		if !ok {
			return 0, errf(x.Pos_, "undeclared name %q", x.Name)
		}
		if !sym.isArray {
			return 0, errf(x.Pos_, "%q is not an array", x.Name)
		}
		idx, err := lo.expr(x.Index)
		if err != nil {
			return 0, err
		}
		t := lo.bld.NewVar("")
		lo.bld.ALoad(t, sym.a, idx)
		return t, nil
	case *LenExpr:
		sym, ok := lo.lookup(x.Name)
		if !ok {
			return 0, errf(x.Pos_, "undeclared name %q", x.Name)
		}
		if !sym.isArray {
			return 0, errf(x.Pos_, "len of non-array %q", x.Name)
		}
		t := lo.bld.NewVar("")
		lo.bld.ALen(t, sym.a)
		return t, nil
	case *UnaryExpr:
		v, err := lo.expr(x.X)
		if err != nil {
			return 0, err
		}
		t := lo.bld.NewVar("")
		if x.Op == tokMinus {
			lo.bld.Unop(ir.OpNeg, t, v)
		} else {
			lo.bld.Unop(ir.OpNot, t, v)
		}
		return t, nil
	case *BinaryExpr:
		return lo.binary(x)
	}
	return 0, fmt.Errorf("lang: unknown expression %T", e)
}

// binOps maps the arithmetic and comparison operators to their opcodes.
var binOps = [...]ir.Op{
	tokPlus: ir.OpAdd, tokMinus: ir.OpSub, tokStar: ir.OpMul,
	tokSlash: ir.OpDiv, tokPercent: ir.OpRem,
	tokEq: ir.OpCmpEQ, tokNe: ir.OpCmpNE, tokLt: ir.OpCmpLT,
	tokLe: ir.OpCmpLE, tokGt: ir.OpCmpGT, tokGe: ir.OpCmpGE,
}

func (lo *lowerer) binary(x *BinaryExpr) (ir.VarID, error) {
	if x.Op == tokAndAnd || x.Op == tokOrOr {
		return lo.shortCircuit(x)
	}
	a, err := lo.expr(x.X)
	if err != nil {
		return 0, err
	}
	b, err := lo.expr(x.Y)
	if err != nil {
		return 0, err
	}
	t := lo.bld.NewVar("")
	lo.bld.Binop(binOps[x.Op], t, a, b)
	return t, nil
}

// shortCircuit lowers && and || with control flow, normalizing the result
// to 0 or 1. The merge creates a φ-node after SSA construction — exactly
// the shape the coalescer must handle.
func (lo *lowerer) shortCircuit(x *BinaryExpr) (ir.VarID, error) {
	t := lo.bld.NewVar("")
	a, err := lo.expr(x.X)
	if err != nil {
		return 0, err
	}
	evalY := lo.bld.NewBlock()
	short := lo.bld.NewBlock()
	join := lo.bld.NewBlock()
	if x.Op == tokAndAnd {
		lo.bld.Br(a, evalY, short) // false short-circuits
	} else {
		lo.bld.Br(a, short, evalY) // true short-circuits
	}

	lo.bld.SetBlock(evalY)
	b, err := lo.expr(x.Y)
	if err != nil {
		return 0, err
	}
	z := lo.bld.NewVar("")
	lo.bld.Const(z, 0)
	lo.bld.Binop(ir.OpCmpNE, t, b, z)
	lo.bld.Jmp(join)

	lo.bld.SetBlock(short)
	if x.Op == tokAndAnd {
		lo.bld.Const(t, 0)
	} else {
		lo.bld.Const(t, 1)
	}
	lo.bld.Jmp(join)

	lo.bld.SetBlock(join)
	return t, nil
}
