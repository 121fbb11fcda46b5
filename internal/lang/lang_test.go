package lang

import (
	"fmt"
	"strings"
	"testing"

	"fastcoalesce/internal/interp"
)

func run(t *testing.T, src string, args []int64, arrays [][]int64) int64 {
	t.Helper()
	f, err := CompileOne(src)
	if err != nil {
		t.Fatalf("CompileOne: %v", err)
	}
	res, err := interp.Run(f, args, arrays, 1_000_000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res.Ret
}

func TestArithmeticPrecedence(t *testing.T) {
	got := run(t, `
func f() int {
	return 2 + 3 * 4 - 10 / 2
}`, nil, nil)
	if got != 9 {
		t.Fatalf("got %d, want 9", got)
	}
}

func TestUnaryAndParens(t *testing.T) {
	got := run(t, `
func f(a int) int {
	return -(a + 1) * 2 + !a
}`, []int64{4}, nil)
	if got != -10 {
		t.Fatalf("got %d, want -10", got)
	}
	got = run(t, `func f(a int) int { return !a }`, []int64{0}, nil)
	if got != 1 {
		t.Fatalf("!0 = %d, want 1", got)
	}
}

func TestIfElseChain(t *testing.T) {
	src := `
func sign(x int) int {
	if x > 0 {
		return 1
	} else if x < 0 {
		return -1
	} else {
		return 0
	}
}`
	for _, tc := range [][2]int64{{5, 1}, {-3, -1}, {0, 0}} {
		if got := run(t, src, []int64{tc[0]}, nil); got != tc[1] {
			t.Fatalf("sign(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
}

func TestWhileLoop(t *testing.T) {
	got := run(t, `
func f(n int) int {
	var s int = 0
	while n > 0 {
		s = s + n
		n = n - 1
	}
	return s
}`, []int64{10}, nil)
	if got != 55 {
		t.Fatalf("got %d, want 55", got)
	}
}

func TestForThreeClause(t *testing.T) {
	got := run(t, `
func f(n int) int {
	var s int = 0
	var i int = 0
	for i = 0; i < n; i = i + 1 {
		s = s + i * i
	}
	return s + i
}`, []int64{5}, nil)
	if got != 35 {
		t.Fatalf("got %d, want 35", got)
	}
}

func TestForUndeclaredLoopVarFails(t *testing.T) {
	_, err := Compile(`
func f(n int) int {
	var s int = 0
	for i = 0; i < n; i = i + 1 {
		s = s + i
	}
	return s
}`)
	if err == nil {
		t.Fatal("undeclared loop variable compiled")
	}
}

func TestForDeclInit(t *testing.T) {
	got := run(t, `
func f(n int) int {
	var s int = 0
	for var i = 0; i < n; i = i + 1 {
		s = s + i * i
	}
	return s
}`, []int64{5}, nil)
	if got != 30 {
		t.Fatalf("got %d, want 30", got)
	}
}

func TestForWhileStyle(t *testing.T) {
	got := run(t, `
func f(n int) int {
	var s int = 1
	for s < n {
		s = s * 2
	}
	return s
}`, []int64{100}, nil)
	if got != 128 {
		t.Fatalf("got %d, want 128", got)
	}
}

func TestShortCircuitAnd(t *testing.T) {
	// x != 0 && v / x > 1 — must not divide when x == 0 (division is total
	// here, but short-circuit must still skip the second operand).
	src := `
func f(x int, v int) int {
	var hits int = 0
	if x != 0 && v / x > 1 {
		hits = 1
	}
	return hits
}`
	if got := run(t, src, []int64{0, 10}, nil); got != 0 {
		t.Fatalf("got %d, want 0", got)
	}
	if got := run(t, src, []int64{2, 10}, nil); got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
}

func TestShortCircuitOr(t *testing.T) {
	src := `
func f(a int, b int) int {
	if a > 0 || b > 0 {
		return 1
	}
	return 0
}`
	cases := [][3]int64{{1, 0, 1}, {0, 1, 1}, {0, 0, 0}, {1, 1, 1}}
	for _, tc := range cases {
		if got := run(t, src, tc[:2], nil); got != tc[2] {
			t.Fatalf("f(%d,%d) = %d, want %d", tc[0], tc[1], got, tc[2])
		}
	}
}

func TestArraysAndLen(t *testing.T) {
	src := `
func sum(x []int) int {
	var s int = 0
	for var i = 0; i < len(x); i = i + 1 {
		s = s + x[i]
	}
	return s
}`
	if got := run(t, src, nil, [][]int64{{1, 2, 3, 4}}); got != 10 {
		t.Fatalf("got %d, want 10", got)
	}
}

func TestArrayStore(t *testing.T) {
	src := `
func scale(x []int, k int) int {
	for var i = 0; i < len(x); i = i + 1 {
		x[i] = x[i] * k
	}
	return x[0]
}`
	f, err := CompileOne(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(f, []int64{3}, [][]int64{{2, 5}}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 6 || res.Arrays[0][1] != 15 {
		t.Fatalf("got ret=%d arr=%v", res.Ret, res.Arrays[0])
	}
}

func TestShadowing(t *testing.T) {
	got := run(t, `
func f() int {
	var x int = 1
	{
		var x int = 2
		x = x + 1
	}
	return x
}`, nil, nil)
	if got != 1 {
		t.Fatalf("got %d, want 1 (inner x shadows)", got)
	}
}

func TestImplicitReturnZero(t *testing.T) {
	if got := run(t, `func f() int { var x int = 5 }`, nil, nil); got != 0 {
		t.Fatalf("got %d, want 0", got)
	}
}

func TestDeadCodeAfterReturn(t *testing.T) {
	if got := run(t, `
func f() int {
	return 3
	return 4
}`, nil, nil); got != 3 {
		t.Fatalf("got %d, want 3", got)
	}
}

func TestBreak(t *testing.T) {
	got := run(t, `
func f(n int) int {
	var s int = 0
	for var i = 0; i < 1000; i = i + 1 {
		if i >= n {
			break
		}
		s = s + i
	}
	return s
}`, []int64{5}, nil)
	if got != 10 {
		t.Fatalf("got %d, want 10", got)
	}
}

func TestContinueRunsPostClause(t *testing.T) {
	// continue must still advance the induction variable.
	got := run(t, `
func f(n int) int {
	var s int = 0
	for var i = 0; i < n; i = i + 1 {
		if i % 2 == 0 {
			continue
		}
		s = s + i
	}
	return s
}`, []int64{10}, nil)
	if got != 25 { // 1+3+5+7+9
		t.Fatalf("got %d, want 25", got)
	}
}

func TestContinueInWhile(t *testing.T) {
	got := run(t, `
func f(n int) int {
	var s int = 0
	var i int = 0
	while i < n {
		i = i + 1
		if i % 3 == 0 {
			continue
		}
		s = s + 1
	}
	return s
}`, []int64{9}, nil)
	if got != 6 {
		t.Fatalf("got %d, want 6", got)
	}
}

func TestBreakNested(t *testing.T) {
	// break leaves only the innermost loop.
	got := run(t, `
func f() int {
	var s int = 0
	for var i = 0; i < 3; i = i + 1 {
		for var j = 0; j < 100; j = j + 1 {
			if j == 2 {
				break
			}
			s = s + 1
		}
	}
	return s
}`, nil, nil)
	if got != 6 {
		t.Fatalf("got %d, want 6", got)
	}
}

func TestBreakOutsideLoopFails(t *testing.T) {
	for _, src := range []string{
		`func f() int { break; return 0 }`,
		`func f() int { continue; return 0 }`,
		`func f() int { if 1 { break }; return 0 }`,
	} {
		if _, err := Compile(src); err == nil {
			t.Errorf("compiled: %s", src)
		}
	}
}

func TestBreakAsLastStatement(t *testing.T) {
	got := run(t, `
func f() int {
	var s int = 7
	while 1 {
		s = s + 1
		break
	}
	return s
}`, nil, nil)
	if got != 8 {
		t.Fatalf("got %d, want 8", got)
	}
}

func TestComments(t *testing.T) {
	if got := run(t, `
// leading comment
func f() int { // trailing
	return 1 // another
}`, nil, nil); got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
}

func TestMultipleFunctions(t *testing.T) {
	fs, err := Compile(`
func a() int { return 1 }
func b() int { return 2 }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 || fs[0].Name != "a" || fs[1].Name != "b" {
		t.Fatalf("got %d funcs", len(fs))
	}
}

func TestErrors(t *testing.T) {
	tooDeepThenAmp := nestedReturn(strings.Repeat("(", maxNesting+1), "a", strings.Repeat(")", maxNesting+1)) + " &"
	cases := []struct{ name, src, want string }{
		{"undeclared", `func f() int { return x }`, `1:23: undeclared name "x"`},
		{"undeclared assign", `func f() int { x = 1; return 0 }`, `1:16: undeclared name "x"`},
		{"redecl", `func f() int { var x int; var x int; return x }`, `1:27: "x" redeclared in this scope`},
		{"redecl param", `func f(a int, a int) int { return a }`, `1:15: parameter "a" redeclared`},
		{"array as scalar", `func f(x []int) int { return x }`, `1:30: array "x" used as a scalar`},
		{"index scalar", `func f(x int) int { return x[0] }`, `1:28: "x" is not an array`},
		{"len of scalar", `func f(x int) int { return len(x) }`, `1:28: len of non-array "x"`},
		{"assign whole array", `func f(x []int) int { x = 1; return 0 }`, `1:23: cannot assign to array "x" without an index`},
		{"redecl func", `func f() int { return 0 } func f() int { return 1 }`, `1:27: function "f" redeclared`},
		{"bad token", `func f() int { return 1 @ 2 }`, `1:25: unexpected character "@"`},
		{"unterminated", `func f() int { return 1`, `1:24: unexpected EOF, expected '}'`},
		{"bad else", `func f() int { if 1 { } else return 2 }`, `1:30: expected 'if' or block after 'else'`},
		{"empty source", `   `, `1:4: source contains no functions`},
		{"huge literal", `func f() int { return 99999999999999999999 }`, `1:23: integer literal "99999999999999999999" out of range`},
		{"single amp", `func f() int { return 1 & 2 }`, `1:25: unexpected character '&'`},
		{"single pipe", `func f() int { return 1 | 2 }`, `1:25: unexpected character '|'`},
		{"stmt starts with op", `func f() int { * 3; return 0 }`, `1:16: unexpected '*' at start of statement`},
		{"missing name at EOF", `func f() int { return 0 } func`, `1:31: expected identifier, found EOF ""`},
		{"bad for init", `func f(x int) int { for x = 1 { } ; return x }`, `1:31: expected ';', found '{' "{"`},
		// Identifiers are lexed byte by byte: the first byte of a UTF-8
		// letter may pass as a Latin-1 letter and the second not.
		{"non-ASCII identifier", `func f() int { var é = 1; return é }`, `1:21: unexpected character "©"`},
		{"stray high byte", "func f() int { return 0 }\n\x80", `2:1: unexpected character "\u0080"`},

		// A lexical error anywhere in the source wins over a parse
		// error before it, and a parse error over a lowering error.
		{"parse then lex", `func f() int { return ) } @`, `1:27: unexpected character "@"`},
		{"parse then huge literal", `func f( { } 99999999999999999999`, `1:13: integer literal "99999999999999999999" out of range`},
		{"parse then lex later func", "func f() int { return 0 }\nfunc g() int { return ] }\nfunc h() int { return 1 | 2 }", `3:25: unexpected character '|'`},
		{"parse at EOF then lex", "func f() int { return 0 } func\n$", `2:1: unexpected character "$"`},
		{"lower then lex", "func f() int { break }\n\x80", `2:1: unexpected character "\u0080"`},
		{"nesting then lex", tooDeepThenAmp, fmt.Sprintf("1:%d: unexpected character '&'", len(tooDeepThenAmp))},
		{"lex then parse", `func f() int { return @ ) }`, `1:23: unexpected character "@"`},

		// Two 2 MB bodies that overflow the stack unless the parser
		// rejects them: one in the parser itself, the other in lowering,
		// because a flat chain parses into a left-deep tree.
		{"million parens", nestedReturn(strings.Repeat("(", 1_000_000), "a", strings.Repeat(")", 1_000_000)),
			fmt.Sprintf("1:%d: nesting exceeds %d levels", len(nestedPrefix)+maxNesting, maxNesting)},
		{"million-term sum", nestedReturn("", "a"+strings.Repeat("+a", 999_999), ""),
			fmt.Sprintf("1:%d: nesting exceeds %d levels", len(nestedPrefix)+2*maxNesting, maxNesting)},
	}
	for _, c := range cases {
		if _, err := Compile(c.src); err == nil {
			t.Errorf("%s: compiled without error", c.name)
		} else if err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Compile("func f() int {\n\treturn x\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Fatalf("error should point at line 2: %v", err)
	}
	// A body at the nesting budget compiles; one level more fails at the
	// token that opens the extra level.
	for _, nc := range nestingCases {
		if _, err := Compile(nc.body(nc.atBudget)); err != nil {
			t.Errorf("%s at the budget: %v", nc.name, err)
		}
		_, err := Compile(nc.body(nc.atBudget + 1))
		if want := fmt.Sprintf("1:%d: nesting exceeds %d levels", nc.col, maxNesting); err == nil || err.Error() != want {
			t.Errorf("%s past the budget: got %v, want %q", nc.name, err, want)
		}
	}
}

// nestedReturn returns a one-line function whose body block (one
// nesting level) returns open+operand+close; open starts at column
// len(nestedPrefix)+1.
func nestedReturn(open, operand, close string) string {
	return nestedPrefix + open + operand + close + " }"
}

const nestedPrefix = "func f(a int, x []int) int { return "

// nestingCases build bodies that nest n levels below the body block, one
// per construct the budget counts. atBudget is the largest n that fits
// in maxNesting, and col the column of the token that opens level
// maxNesting+1.
var nestingCases = []struct {
	name     string
	body     func(n int) string
	atBudget int
	col      int
}{
	{"parens", func(n int) string {
		return nestedReturn(strings.Repeat("(", n), "a", strings.Repeat(")", n))
	}, maxNesting - 1, len(nestedPrefix) + maxNesting},
	{"index", func(n int) string {
		return nestedReturn(strings.Repeat("x[", n), "0", strings.Repeat("]", n))
	}, maxNesting - 1, len(nestedPrefix) + 2*maxNesting},
	{"unary", func(n int) string {
		return nestedReturn(strings.Repeat("-", n), "a", "")
	}, maxNesting - 1, len(nestedPrefix) + maxNesting},
	{"sum", func(n int) string {
		return nestedReturn("", "a"+strings.Repeat("+a", n), "")
	}, maxNesting - 1, len(nestedPrefix) + 2*maxNesting},
	{"blocks", func(n int) string {
		return "func f(a int) int {" + strings.Repeat("{", n) + strings.Repeat("}", n) + " return a }"
	}, maxNesting - 1, len("func f(a int) int {") + maxNesting},
	{"else-if", func(n int) string {
		// The if statement sits in the body block, and each else-if is
		// one level below the last; the last then-block is one more.
		return "func f(a int) int { if a {}" + strings.Repeat(" else if a {}", n) + " return a }"
	}, maxNesting - 2, len("func f(a int) int { if a {}") + (maxNesting-2)*len(" else if a {}") + len(" else if a ") + 1},
}

func TestVerifiesAndNamesPreserved(t *testing.T) {
	f, err := CompileOne(`
func kern(n int, x []int) int {
	var acc int = 0
	for var i = 0; i < n; i = i + 1 {
		if x[i] % 2 == 0 {
			acc = acc + x[i]
		}
	}
	return acc
}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	if f.Name != "kern" {
		t.Fatalf("Name = %q", f.Name)
	}
	if len(f.Params) != 1 || len(f.ArrParams) != 1 {
		t.Fatalf("params: %d scalars, %d arrays", len(f.Params), len(f.ArrParams))
	}
	if f.VarNames[f.Params[0]] != "n" || f.ArrNames[f.ArrParams[0]] != "x" {
		t.Fatal("parameter names lost")
	}
}
