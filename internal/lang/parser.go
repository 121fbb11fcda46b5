package lang

// maxNesting bounds how deeply one function's syntax may nest. Parsing
// and lowering recurse once per level, and Go cannot recover from a
// stack overflow, so deeper input is rejected with a parse error while
// it is parsed. A level is whatever a recursive pass descends through: a
// block, an else-if, a parenthesis, an index bracket, a unary operator,
// and every binary operator, because a left-associative chain a+a+…+a
// is a tree as deep as it is long. The suite's kernels nest at most 12
// levels, and generated programs of 4 000 statements about 100.
const maxNesting = 1000

// parser is a recursive-descent parser for the kernel language. It
// pulls tokens from the lexer as it goes, with one token of lookahead
// for the for clause.
type parser struct {
	lx     lexer
	tok    token // the current token
	ahead  token // the token after tok, when peeked
	peeked bool

	// lexErr is the first lexical error. The token stream ends there:
	// the parser sees EOF from then on.
	lexErr error

	// depth is the nesting level of the construct being parsed; deepest
	// is the deepest level reached by the expression parsed last.
	depth, deepest int

	n *nodes // where the AST is allocated
}

// Parse tokenizes and parses a source file. A lexical error anywhere in
// the source is reported in preference to a parse error before it. The
// AST is allocated on slabs of its own.
func Parse(src string) (*File, error) {
	return parse(&parser{}, src, &nodes{})
}

// parse runs p over src, allocating the AST on n.
func parse(p *parser, src string, n *nodes) (*File, error) {
	*p = parser{lx: lexer{src: src, line: 1, col: 1}, n: n}
	p.pull(&p.tok)
	file, err := p.parseFile()
	if err != nil && p.lexErr == nil {
		p.lexErr = p.lx.drain()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return file, err
}

func (p *parser) parseFile() (*File, error) {
	file := &p.n.file
	*file = File{Funcs: file.Funcs[:0]}
	p.skipSemis()
	for p.tok.kind != tokEOF {
		fn, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		file.Funcs = append(file.Funcs, fn)
		p.skipSemis()
	}
	if len(file.Funcs) == 0 {
		return nil, errf(p.tok.pos, "source contains no functions")
	}
	return file, nil
}

// pull fills t with the next token from the lexer, or with EOF once a
// lexical error has ended the stream.
func (p *parser) pull(t *token) {
	if p.lexErr == nil {
		p.lexErr = p.lx.next(t)
	}
	if p.lexErr != nil {
		*t = token{kind: tokEOF}
	}
}

// peek returns the kind of the token after the current one.
func (p *parser) peek() tokKind {
	if !p.peeked {
		p.pull(&p.ahead)
		p.peeked = true
	}
	return p.ahead.kind
}

// next consumes the current token and returns it.
func (p *parser) next() token {
	t := p.tok
	if p.peeked {
		p.tok, p.peeked = p.ahead, false
	} else {
		p.pull(&p.tok)
	}
	return t
}

func (p *parser) accept(k tokKind) bool {
	if p.tok.kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.tok.kind != k {
		return token{}, errf(p.tok.pos, "expected %v, found %v %q", k, p.tok.kind, p.tok.text)
	}
	return p.next(), nil
}

// nest enters one more nesting level; pos is the token that opens it.
func (p *parser) nest(pos Pos) error {
	p.depth++
	return checkNesting(pos, p.depth)
}

func checkNesting(pos Pos, level int) error {
	if level > maxNesting {
		return errf(pos, "nesting exceeds %d levels", maxNesting)
	}
	return nil
}

func (p *parser) skipSemis() {
	for p.tok.kind == tokSemi {
		p.next()
	}
}

func (p *parser) parseFunc() (*FuncDecl, error) {
	kw, err := p.expect(tokFunc)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	fn := newNode(p.n, &p.n.funcs)
	*fn = FuncDecl{Pos: kw.pos, Name: name.text}
	first := p.n.count
	mark := len(p.n.params)
	for p.tok.kind != tokRParen {
		if len(p.n.params) > mark {
			if _, err := p.expect(tokComma); err != nil {
				return nil, err
			}
		}
		pn, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		typ := TypeInt
		if p.accept(tokLBrack) {
			if _, err := p.expect(tokRBrack); err != nil {
				return nil, err
			}
			typ = TypeArray
		}
		if _, err := p.expect(tokKwInt); err != nil {
			return nil, err
		}
		p.n.params = append(p.n.params, Param{Pos: pn.pos, Name: pn.text, Type: typ})
	}
	fn.Params = p.n.paramList(mark)
	p.next()           // ')'
	p.accept(tokKwInt) // optional "int" result type
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	fn.nodes = p.n.count - first
	return fn, nil
}

func (p *parser) parseBlock() (*BlockStmt, error) {
	lb, err := p.expect(tokLBrace)
	if err != nil {
		return nil, err
	}
	if err := p.nest(lb.pos); err != nil {
		return nil, err
	}
	blk := newNode(p.n, &p.n.blocks)
	blk.Pos = lb.pos
	mark := len(p.n.stmts)
	p.skipSemis()
	for p.tok.kind != tokRBrace {
		if p.tok.kind == tokEOF {
			return nil, errf(p.tok.pos, "unexpected EOF, expected '}'")
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.n.stmts = append(p.n.stmts, st)
		p.skipSemis()
	}
	blk.Stmts = p.n.stmtList(mark)
	p.next() // '}'
	p.depth--
	return blk, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	switch p.tok.kind {
	case tokVar:
		return p.parseVarDecl()
	case tokIf:
		return p.parseIf()
	case tokFor:
		return p.parseFor()
	case tokWhile:
		return p.parseWhile()
	case tokReturn:
		kw := p.next()
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st := newNode(p.n, &p.n.returns)
		*st = ReturnStmt{Pos: kw.pos, Value: val}
		return st, nil
	case tokBreak:
		st := newNode(p.n, &p.n.breaks)
		st.Pos = p.next().pos
		return st, nil
	case tokContinue:
		st := newNode(p.n, &p.n.continues)
		st.Pos = p.next().pos
		return st, nil
	case tokLBrace:
		return p.parseBlock()
	case tokIdent:
		return p.parseAssign()
	}
	return nil, errf(p.tok.pos, "unexpected %v at start of statement", p.tok.kind)
}

func (p *parser) parseVarDecl() (Stmt, error) {
	kw := p.next() // 'var'
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	p.accept(tokKwInt) // optional type
	d := newNode(p.n, &p.n.decls)
	*d = VarDecl{Pos: kw.pos, Name: name.text}
	if p.accept(tokAssign) {
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	return d, nil
}

func (p *parser) parseAssign() (Stmt, error) {
	name := p.next()
	st := newNode(p.n, &p.n.assigns)
	*st = AssignStmt{Pos: name.pos, Name: name.text}
	if p.accept(tokLBrack) {
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBrack); err != nil {
			return nil, err
		}
		st.Index = idx
	}
	if _, err := p.expect(tokAssign); err != nil {
		return nil, err
	}
	val, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	st.Value = val
	return st, nil
}

func (p *parser) parseIf() (Stmt, error) {
	kw := p.next()
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := newNode(p.n, &p.n.ifs)
	*st = IfStmt{Pos: kw.pos, Cond: cond, Then: then}
	if p.accept(tokElse) {
		switch p.tok.kind {
		case tokIf:
			if err := p.nest(p.tok.pos); err != nil {
				return nil, err
			}
			els, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			p.depth--
			st.Else = els
		case tokLBrace:
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.Else = els
		default:
			return nil, errf(p.tok.pos, "expected 'if' or block after 'else'")
		}
	}
	return st, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	kw := p.next()
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := newNode(p.n, &p.n.whiles)
	*st = WhileStmt{Pos: kw.pos, Cond: cond, Body: body}
	return st, nil
}

// parseFor handles three forms:
//
//	for { ... }                      infinite
//	for cond { ... }                 while-style
//	for init; cond; post { ... }     three-clause
func (p *parser) parseFor() (Stmt, error) {
	kw := p.next()
	st := newNode(p.n, &p.n.fors)
	st.Pos = kw.pos
	if p.tok.kind == tokLBrace {
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		st.Body = body
		return st, nil
	}

	// Disambiguate: an init clause is "var ..." or "lvalue = ...".
	isInit := p.tok.kind == tokVar || p.tok.kind == tokSemi ||
		(p.tok.kind == tokIdent && (p.peek() == tokAssign || p.peek() == tokLBrack))
	if !isInit {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Cond = cond
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		st.Body = body
		return st, nil
	}

	if p.tok.kind != tokSemi {
		var err error
		if p.tok.kind == tokVar {
			st.Init, err = p.parseVarDecl()
		} else {
			st.Init, err = p.parseAssign()
		}
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	if p.tok.kind != tokSemi {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Cond = cond
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	if p.tok.kind != tokLBrace {
		post, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		st.Post = post
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

// Expression parsing, by precedence climbing.

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

// precedence returns the binding power of binary operator k, from 1 (||)
// to 5 (* / %), or 0 if k is not a binary operator.
func precedence(k tokKind) int {
	switch k {
	case tokOrOr:
		return 1
	case tokAndAnd:
		return 2
	case tokEq, tokNe, tokLt, tokLe, tokGt, tokGe:
		return 3
	case tokPlus, tokMinus:
		return 4
	case tokStar, tokSlash, tokPercent:
		return 5
	}
	return 0
}

// parseBinary parses a chain of binary operators that bind at least as
// tightly as minPrec, left-associatively. Each operator puts the tree
// built so far one level deeper, so the nesting check runs per operator.
func (p *parser) parseBinary(minPrec int) (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		prec := precedence(p.tok.kind)
		if prec < minPrec {
			return x, nil
		}
		op := p.next()
		dx := p.deepest
		y, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		p.deepest = max(dx, p.deepest) + 1
		if err := checkNesting(op.pos, p.deepest); err != nil {
			return nil, err
		}
		bx := newNode(p.n, &p.n.binaries)
		*bx = BinaryExpr{Pos_: op.pos, Op: op.kind, X: x, Y: y}
		x = bx
	}
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.tok.kind {
	case tokMinus, tokNot:
		op := p.next()
		if err := p.nest(op.pos); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.depth--
		ux := newNode(p.n, &p.n.unaries)
		*ux = UnaryExpr{Pos_: op.pos, Op: op.kind, X: x}
		return ux, nil
	}
	return p.parsePrimary()
}

// parsePrimary parses an operand. A leaf sets deepest to the current
// level; a bracketed operand leaves the deepest level reached inside.
func (p *parser) parsePrimary() (Expr, error) {
	p.deepest = p.depth
	switch p.tok.kind {
	case tokInt:
		t := p.next()
		lit := newNode(p.n, &p.n.ints)
		*lit = IntLit{Pos_: t.pos, Val: t.val}
		return lit, nil
	case tokLen:
		t := p.next()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		lx := newNode(p.n, &p.n.lens)
		*lx = LenExpr{Pos_: t.pos, Name: name.text}
		return lx, nil
	case tokIdent:
		t := p.next()
		if p.tok.kind != tokLBrack {
			id := newNode(p.n, &p.n.idents)
			*id = Ident{Pos_: t.pos, Name: t.text}
			return id, nil
		}
		idx, err := p.parseBracketed(tokRBrack)
		if err != nil {
			return nil, err
		}
		ix := newNode(p.n, &p.n.indexes)
		*ix = IndexExpr{Pos_: t.pos, Name: t.text, Index: idx}
		return ix, nil
	case tokLParen:
		return p.parseBracketed(tokRParen)
	}
	return nil, errf(p.tok.pos, "unexpected %v in expression", p.tok.kind)
}

// parseBracketed parses an expression between the current opening token
// and the closing token, one nesting level down.
func (p *parser) parseBracketed(closing tokKind) (Expr, error) {
	if err := p.nest(p.next().pos); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(closing); err != nil {
		return nil, err
	}
	p.depth--
	return x, nil
}
