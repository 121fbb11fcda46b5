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

// parser is a recursive-descent parser for the kernel language.
type parser struct {
	toks []token
	i    int

	// depth is the nesting level of the construct being parsed; deepest
	// is the deepest level reached by the expression parsed last.
	depth, deepest int
}

// Parse tokenizes and parses a source file.
func Parse(src string) (*File, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	file := &File{}
	p.skipSemis()
	for p.cur().kind != tokEOF {
		fn, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		file.Funcs = append(file.Funcs, fn)
		p.skipSemis()
	}
	if len(file.Funcs) == 0 {
		return nil, errf(p.cur().pos, "source contains no functions")
	}
	return file, nil
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) peek() token { return p.toks[min(p.i+1, len(p.toks)-1)] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) accept(k tokKind) bool {
	if p.cur().kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.cur().kind != k {
		return token{}, errf(p.cur().pos, "expected %v, found %v %q", k, p.cur().kind, p.cur().text)
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
	for p.cur().kind == tokSemi {
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
	fn := &FuncDecl{Pos: kw.pos, Name: name.text}
	for p.cur().kind != tokRParen {
		if len(fn.Params) > 0 {
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
		fn.Params = append(fn.Params, Param{Pos: pn.pos, Name: pn.text, Type: typ})
	}
	p.next()           // ')'
	p.accept(tokKwInt) // optional "int" result type
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
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
	blk := &BlockStmt{Pos: lb.pos}
	p.skipSemis()
	for p.cur().kind != tokRBrace {
		if p.cur().kind == tokEOF {
			return nil, errf(p.cur().pos, "unexpected EOF, expected '}'")
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, st)
		p.skipSemis()
	}
	p.next() // '}'
	p.depth--
	return blk, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	switch p.cur().kind {
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
		return &ReturnStmt{Pos: kw.pos, Value: val}, nil
	case tokBreak:
		return &BreakStmt{Pos: p.next().pos}, nil
	case tokContinue:
		return &ContinueStmt{Pos: p.next().pos}, nil
	case tokLBrace:
		return p.parseBlock()
	case tokIdent:
		return p.parseAssign()
	}
	return nil, errf(p.cur().pos, "unexpected %v at start of statement", p.cur().kind)
}

func (p *parser) parseVarDecl() (Stmt, error) {
	kw := p.next() // 'var'
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	p.accept(tokKwInt) // optional type
	d := &VarDecl{Pos: kw.pos, Name: name.text}
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
	st := &AssignStmt{Pos: name.pos, Name: name.text}
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
	st := &IfStmt{Pos: kw.pos, Cond: cond, Then: then}
	if p.accept(tokElse) {
		switch p.cur().kind {
		case tokIf:
			if err := p.nest(p.cur().pos); err != nil {
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
			return nil, errf(p.cur().pos, "expected 'if' or block after 'else'")
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
	return &WhileStmt{Pos: kw.pos, Cond: cond, Body: body}, nil
}

// parseFor handles three forms:
//
//	for { ... }                      infinite
//	for cond { ... }                 while-style
//	for init; cond; post { ... }     three-clause
func (p *parser) parseFor() (Stmt, error) {
	kw := p.next()
	st := &ForStmt{Pos: kw.pos}
	if p.cur().kind == tokLBrace {
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		st.Body = body
		return st, nil
	}

	// Disambiguate: an init clause is "var ..." or "lvalue = ...".
	isInit := p.cur().kind == tokVar || p.cur().kind == tokSemi ||
		(p.cur().kind == tokIdent && (p.peek().kind == tokAssign || p.peek().kind == tokLBrack))
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

	if p.cur().kind != tokSemi {
		var err error
		if p.cur().kind == tokVar {
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
	if p.cur().kind != tokSemi {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Cond = cond
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	if p.cur().kind != tokLBrace {
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
		prec := precedence(p.cur().kind)
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
		x = &BinaryExpr{Pos_: op.pos, Op: op.kind, X: x, Y: y}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.cur().kind {
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
		return &UnaryExpr{Pos_: op.pos, Op: op.kind, X: x}, nil
	}
	return p.parsePrimary()
}

// parsePrimary parses an operand. A leaf sets deepest to the current
// level; a bracketed operand leaves the deepest level reached inside.
func (p *parser) parsePrimary() (Expr, error) {
	p.deepest = p.depth
	switch p.cur().kind {
	case tokInt:
		t := p.next()
		return &IntLit{Pos_: t.pos, Val: t.val}, nil
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
		return &LenExpr{Pos_: t.pos, Name: name.text}, nil
	case tokIdent:
		t := p.next()
		if p.cur().kind != tokLBrack {
			return &Ident{Pos_: t.pos, Name: t.text}, nil
		}
		idx, err := p.parseBracketed(tokRBrack)
		if err != nil {
			return nil, err
		}
		return &IndexExpr{Pos_: t.pos, Name: t.text, Index: idx}, nil
	case tokLParen:
		return p.parseBracketed(tokRParen)
	}
	return nil, errf(p.cur().pos, "unexpected %v in expression", p.cur().kind)
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
