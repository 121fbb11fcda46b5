package lang

import (
	"strconv"
	"unicode"
)

// lexer tokenizes kernel-language source one token at a time, as the
// parser pulls them. Semicolons are inserted at newlines following a
// token that can end a statement (the Go rule), so sources rarely need
// explicit ';'. Identifier and integer text are substrings of the
// source; lowering clones the names the IR keeps.
type lexer struct {
	src  string
	off  int
	line int
	col  int
	last tokKind // kind of the token returned last, for semicolon insertion
}

// identStart marks the bytes that may start an identifier. The test is
// byte-wise: each byte of a UTF-8 sequence is taken as the Latin-1 rune
// of the same value.
var identStart = func() (t [256]bool) {
	for b := range t {
		t[b] = unicode.IsLetter(rune(b)) || b == '_'
	}
	return t
}()

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

// keyword returns the keyword token kind for word, or tokIdent.
func keyword(word string) tokKind {
	switch word {
	case "func":
		return tokFunc
	case "var":
		return tokVar
	case "if":
		return tokIf
	case "else":
		return tokElse
	case "for":
		return tokFor
	case "while":
		return tokWhile
	case "return":
		return tokReturn
	case "len":
		return tokLen
	case "break":
		return tokBreak
	case "continue":
		return tokContinue
	case "int":
		return tokKwInt
	}
	return tokIdent
}

// canEndStatement reports whether a token may terminate a statement, for
// automatic semicolon insertion.
func canEndStatement(k tokKind) bool {
	switch k {
	case tokIdent, tokInt, tokRParen, tokRBrace, tokRBrack, tokKwInt, tokReturn,
		tokBreak, tokContinue:
		return true
	}
	return false
}

// next fills t with the next token, or returns the lexical error that
// ends the source. Past the end it returns EOF tokens forever.
//
// fc:hotpath
func (lx *lexer) next(t *token) error {
	src := lx.src
	for lx.off < len(src) {
		ch := src[lx.off]
		start := lx.off
		pos := Pos{Line: lx.line, Col: lx.col}
		switch {
		case ch == '\n':
			lx.off++
			lx.line++
			lx.col = 1
			if canEndStatement(lx.last) {
				lx.emit(t, tokSemi, "\n", Pos{Line: lx.line, Col: lx.col})
				return nil
			}
			continue
		case ch == ' ' || ch == '\t' || ch == '\r':
			lx.skip(1)
			continue
		case ch == '/' && start+1 < len(src) && src[start+1] == '/':
			end := start
			for end < len(src) && src[end] != '\n' {
				end++
			}
			lx.skip(end - start)
			continue
		case identStart[ch]:
			end := start + 1
			for end < len(src) && (identStart[src[end]] || isDigit(src[end])) {
				end++
			}
			lx.skip(end - start)
			word := src[start:end]
			lx.emit(t, keyword(word), word, pos)
			return nil
		case isDigit(ch):
			end := start + 1
			for end < len(src) && isDigit(src[end]) {
				end++
			}
			lx.skip(end - start)
			text := src[start:end]
			v, err := strconv.ParseInt(text, 10, 64)
			if err != nil {
				return errf(pos, "integer literal %q out of range", text) // fc:lint-ok cold: ends the compile
			}
			lx.emit(t, tokInt, text, pos)
			t.val = v
			return nil
		}

		lx.skip(1)
		k := tokEOF
		switch ch {
		case '(':
			k = tokLParen
		case ')':
			k = tokRParen
		case '{':
			k = tokLBrace
		case '}':
			k = tokRBrace
		case '[':
			k = tokLBrack
		case ']':
			k = tokRBrack
		case ',':
			k = tokComma
		case ';':
			k = tokSemi
		case '+':
			k = tokPlus
		case '-':
			k = tokMinus
		case '*':
			k = tokStar
		case '/':
			k = tokSlash
		case '%':
			k = tokPercent
		case '=':
			k = lx.pick('=', tokEq, tokAssign)
		case '!':
			k = lx.pick('=', tokNe, tokNot)
		case '<':
			k = lx.pick('=', tokLe, tokLt)
		case '>':
			k = lx.pick('=', tokGe, tokGt)
		case '&':
			k = lx.pick('&', tokAndAnd, tokEOF)
		case '|':
			k = lx.pick('|', tokOrOr, tokEOF)
		}
		switch {
		case k != tokEOF:
			lx.emit(t, k, src[start:lx.off], pos)
			return nil
		case ch == '&' || ch == '|':
			return errf(pos, "unexpected character '%c'", ch) // fc:lint-ok cold: ends the compile
		}
		return errf(pos, "unexpected character %q", string(rune(ch))) // fc:lint-ok cold: ends the compile
	}
	pos := Pos{Line: lx.line, Col: lx.col}
	if canEndStatement(lx.last) {
		lx.emit(t, tokSemi, "\n", pos)
	} else {
		lx.emit(t, tokEOF, "", pos)
	}
	return nil
}

// pick consumes the byte c if it comes next and returns yes, and
// returns no otherwise.
func (lx *lexer) pick(c byte, yes, no tokKind) tokKind {
	if lx.off < len(lx.src) && lx.src[lx.off] == c {
		lx.skip(1)
		return yes
	}
	return no
}

// skip advances over n bytes of one line.
func (lx *lexer) skip(n int) {
	lx.off += n
	lx.col += n
}

func (lx *lexer) emit(t *token, kind tokKind, text string, pos Pos) {
	*t = token{kind: kind, text: text, pos: pos}
	lx.last = kind
}

// drain lexes the rest of the source and returns its first lexical
// error, if any.
func (lx *lexer) drain() error {
	var t token
	for {
		if err := lx.next(&t); err != nil || t.kind == tokEOF {
			return err
		}
	}
}
