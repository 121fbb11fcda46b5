package regalloc

import (
	"reflect"
	"slices"
	"testing"

	"fastcoalesce/internal/ir"
)

// threeWaySrc keeps three parameters live across sums of pairs of them,
// so low register counts spill names that one instruction uses together.
const threeWaySrc = `func three(a, b, c) {
b0:
	a = param 0
	b = param 1
	c = param 2
	s = add a, b
	t = add b, c
	u = add a, c
	v = add s, t
	w = add v, u
	x = mul a, b
	y = mul x, c
	z = add w, y
	ret z
}`

// doublingSrc redefines x from two uses of itself inside a loop that
// also carries a counter and two loop-invariant names.
const doublingSrc = `func doubling(n) {
b0:
	n = param 0
	x = 1
	i = 0
	one = 1
	jmp b1
b1:
	x = add x, x
	i = add i, one
	c = cmplt i, n
	br c b1 b2
b2:
	r = add x, i
	ret r
}`

func parseFunc(t *testing.T, src string) *ir.Func {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func varsNamed(t *testing.T, f *ir.Func, names []string) []ir.VarID {
	t.Helper()
	var vs []ir.VarID
	for _, name := range names {
		v := slices.Index(f.VarNames, name)
		if v < 0 {
			t.Fatalf("no variable %q", name)
		}
		vs = append(vs, ir.VarID(v))
	}
	return vs
}

// TestRewriteSpillsMatchesPerName runs hand-picked spill rounds through
// rewriteSpills and through the per-name reference, and requires the
// same code, names and counts: two names used by one instruction (in
// both list orders), a name used twice by the instruction that redefines
// it, and a second round over the first round's output.
func TestRewriteSpillsMatchesPerName(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		rounds [][]string
	}{
		{"pair", threeWaySrc, [][]string{{"a", "b"}}},
		{"pair-reversed", threeWaySrc, [][]string{{"b", "a"}}},
		{"all-params", threeWaySrc, [][]string{{"c", "a", "b"}}},
		{"two-rounds", threeWaySrc, [][]string{{"s", "b"}, {"a", "c", "t"}}},
		{"x-plus-x", doublingSrc, [][]string{{"x"}}},
		{"x-plus-x-and-counter", doublingSrc, [][]string{{"i", "x"}, {"n", "one"}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := parseFunc(t, c.src), parseFunc(t, c.src)
			var sc Scratch
			for _, f := range []*ir.Func{got, want} {
				f.NewArr("spill")
			}
			arr := ir.ArrID(got.NumArrs() - 1)
			slot := 0
			for _, names := range c.rounds {
				toSpill := varsNamed(t, got, names)
				r1, s1 := sc.rewriteSpills(got, toSpill, arr, slot)
				r2, s2 := rewriteSpillsPerName(nil, want, toSpill, arr, slot)
				if r1 != r2 || s1 != s2 {
					t.Fatalf("spilling %v: %d reloads, %d stores; per name %d, %d", names, r1, s1, r2, s2)
				}
				if r1 == 0 {
					t.Fatalf("spilling %v inserted no code", names)
				}
				slot += len(toSpill)
			}
			if g, w := string(got.AppendText(nil)), string(want.AppendText(nil)); g != w {
				t.Fatalf("one-pass rewrite differs from per-name rewrite\none pass:\n%s\nper name:\n%s", g, w)
			}
			if !slices.Equal(got.VarNames, want.VarNames) {
				t.Fatalf("variable names differ:\none pass: %v\nper name: %v", got.VarNames, want.VarNames)
			}
		})
	}
}

// TestAllocateHandWrittenMatchesPerName drives the allocator itself with
// both rewriters on the hand-written functions, at every register count
// that spills, and requires identical code and Results. Across the
// counts, the allocator must itself pick a round in which the shape each
// function exists for occurs, so the cases cannot silently go stale.
func TestAllocateHandWrittenMatchesPerName(t *testing.T) {
	pairUse := func(f *ir.Func, toSpill []ir.VarID) bool {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if len(in.Args) == 2 && in.Args[0] != in.Args[1] &&
					slices.Contains(toSpill, in.Args[0]) && slices.Contains(toSpill, in.Args[1]) {
					return true
				}
			}
		}
		return false
	}
	selfUse := func(f *ir.Func, toSpill []ir.VarID) bool {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if len(in.Args) == 2 && in.Def == in.Args[0] && in.Def == in.Args[1] &&
					slices.Contains(toSpill, in.Def) {
					return true
				}
			}
		}
		return false
	}
	cases := []struct {
		name  string
		src   string
		shape func(f *ir.Func, toSpill []ir.VarID) bool
	}{
		{"two-spilled-names-one-instr", threeWaySrc, pairUse},
		{"x-plus-x", doublingSrc, selfUse},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seen := false
			spy := func(sc *Scratch, f *ir.Func, toSpill []ir.VarID, arr ir.ArrID, firstSlot int) (int, int) {
				seen = seen || c.shape(f, toSpill)
				return sc.rewriteSpills(f, toSpill, arr, firstSlot)
			}
			for k := 2; k <= 4; k++ {
				got, want := parseFunc(t, c.src), parseFunc(t, c.src)
				resGot, errGot := (&Scratch{}).allocate(got, Options{K: k}, spy)
				resWant, errWant := (&Scratch{}).allocate(want, Options{K: k}, rewriteSpillsPerName)
				if errGot != nil || errWant != nil {
					t.Fatalf("k=%d: errors %v / %v", k, errGot, errWant)
				}
				if !reflect.DeepEqual(resGot, resWant) {
					t.Fatalf("k=%d: Result %+v, per name %+v", k, resGot, resWant)
				}
				if g, w := string(got.AppendText(nil)), string(want.AppendText(nil)); g != w {
					t.Fatalf("k=%d: allocated code differs\none pass:\n%s\nper name:\n%s", k, g, w)
				}
			}
			if !seen {
				t.Fatal("no allocation round spilled the shape this function exists for")
			}
		})
	}
}
