package lang

import "fmt"

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokSemi // ';' or inserted at newline

	// keywords
	tokFunc
	tokVar
	tokIf
	tokElse
	tokFor
	tokWhile
	tokReturn
	tokBreak
	tokContinue
	tokLen
	tokKwInt   // "int"
	tokKwArray // "[]int" (lexed as one unit by the parser)

	// punctuation and operators
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokLBrack
	tokRBrack
	tokComma
	tokAssign // =
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokPercent
	tokEq // ==
	tokNe // !=
	tokLt
	tokLe
	tokGt
	tokGe
	tokAndAnd
	tokOrOr
	tokNot
)

var kindNames = map[tokKind]string{
	tokEOF: "EOF", tokIdent: "identifier", tokInt: "integer", tokSemi: "';'",
	tokFunc: "'func'", tokVar: "'var'", tokIf: "'if'", tokElse: "'else'",
	tokFor: "'for'", tokWhile: "'while'", tokReturn: "'return'", tokLen: "'len'",
	tokBreak: "'break'", tokContinue: "'continue'",
	tokKwInt: "'int'", tokLParen: "'('", tokRParen: "')'", tokLBrace: "'{'",
	tokRBrace: "'}'", tokLBrack: "'['", tokRBrack: "']'", tokComma: "','",
	tokAssign: "'='", tokPlus: "'+'", tokMinus: "'-'", tokStar: "'*'",
	tokSlash: "'/'", tokPercent: "'%'", tokEq: "'=='", tokNe: "'!='",
	tokLt: "'<'", tokLe: "'<='", tokGt: "'>'", tokGe: "'>='",
	tokAndAnd: "'&&'", tokOrOr: "'||'", tokNot: "'!'",
}

func (k tokKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// Pos is a source position.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// token is one lexical token.
type token struct {
	kind tokKind
	text string
	val  int64 // for tokInt
	pos  Pos
}

// Error is a positioned compile error.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// errf builds a positioned compile error. Hot paths such as lexer.next
// call it only on their way out of a failing compile.
func errf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)} // fc:lint-ok cold: a failing compile builds one error
}
