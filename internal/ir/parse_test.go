package ir

import (
	"runtime"
	"strings"
	"testing"
)

const sampleIR = `
func samp(n, x[]) {
b0:
	n = param 0
	i = 0
	one = 1
	jmp b1
b1: ; preds b0 b2
	iv = phi(b0:i, b2:inext)
	sv = phi(b0:i, b2:snext)
	c = cmplt iv, n
	br c b2 b3
b2: ; preds b1
	e = x[iv]
	t = mul e, e
	snext = add sv, t
	x[iv] = t
	inext = add iv, one
	jmp b1
b3: ; preds b1
	l = len(x)
	r = add sv, l
	neg1 = neg r
	out = neg1
	ret out
}
`

func TestParseBasics(t *testing.T) {
	f, err := Parse(sampleIR)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "samp" {
		t.Fatalf("Name = %q", f.Name)
	}
	if len(f.Params) != 1 || len(f.ArrParams) != 1 {
		t.Fatalf("params: %d scalars, %d arrays", len(f.Params), len(f.ArrParams))
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(f.Blocks))
	}
	if f.CountPhis() != 2 {
		t.Fatalf("phis = %d, want 2", f.CountPhis())
	}
	if f.CountCopies() != 1 {
		t.Fatalf("copies = %d, want 1 (out = neg1)", f.CountCopies())
	}
}

func TestParsePhiArgsAlignWithPreds(t *testing.T) {
	f, err := Parse(sampleIR)
	if err != nil {
		t.Fatal(err)
	}
	b1 := f.Blocks[1]
	for j := 0; j < b1.NumPhis(); j++ {
		phi := &b1.Instrs[j]
		for pi, pred := range b1.Preds {
			a := phi.Args[pi]
			name := f.VarName(a)
			switch pred {
			case 0:
				if name != "i" {
					t.Fatalf("φ arg from b0 = %q, want i", name)
				}
			case 2:
				if name != "inext" && name != "snext" {
					t.Fatalf("φ arg from b2 = %q", name)
				}
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no function":    "b0:\n\tret x\n",
		"bad label":      "func f() {\nzz:\n\tret x\n}",
		"bad jmp":        "func f() {\nb0:\n\tjmp nowhere\n}",
		"dangling edge":  "func f() {\nb0:\n\tjmp b9\n}",
		"unknown op":     "func f() {\nb0:\n\tx = frobnicate y, z\n\tret x\n}",
		"outside block":  "func f() {\n\tx = 1\n}",
		"second func":    "func f() {\nb0:\n\tx = 1\n\tret x\n}\nfunc g() {\nb0:\n\tret x\n}",
		"phi wrong pred": "func f() {\nb0:\n\tx = 1\n\tjmp b1\nb1:\n\ty = phi(b7:x)\n\tret y\n}",
		"no terminator":  "func f() {\nb0:\n\tx = 1\n}",
		"digit name":     "func f() {\nb0:\n\t0 = 1\n\tret 0\n}",
		"dotted start":   "func f() {\nb0:\n\t.x = 1\n\tret .x\n}",
		"bad param":      "func f(a-b) {\nb0:\n\tret a-b\n}",
		"bad phi arg":    "func f() {\nb0:\n\tx = 1\n\tjmp b1\nb1:\n\ty = phi(b0:x+1)\n\tret y\n}",
		"bad array":      "func f(9a[]) {\nb0:\n\tx = len(9a)\n\tret x\n}",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestParsePrintedDiamond(t *testing.T) {
	// Print a builder-built function and parse it back.
	f := NewFunc("d")
	c, r := f.NewVar("c"), f.NewVar("r")
	f.Params = []VarID{c}
	bld := NewBuilder(f)
	b1, b2, b3 := bld.NewBlock(), bld.NewBlock(), bld.NewBlock()
	bld.Param(c, 0)
	bld.Br(c, b1, b2)
	bld.SetBlock(b1)
	bld.Const(r, 1)
	bld.Jmp(b3)
	bld.SetBlock(b2)
	bld.Const(r, 2)
	bld.Jmp(b3)
	bld.SetBlock(b3)
	bld.Ret(r)

	g, err := Parse(f.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, f)
	}
	if g.String() != f.String() {
		t.Fatalf("mismatch:\n%s\nvs\n%s", f, g)
	}
}

func TestParseNegativeConst(t *testing.T) {
	f, err := Parse("func f() {\nb0:\n\tx = -42\n\tret x\n}")
	if err != nil {
		t.Fatal(err)
	}
	if f.Blocks[0].Instrs[0].Const != -42 {
		t.Fatalf("const = %d", f.Blocks[0].Instrs[0].Const)
	}
}

func TestParseIgnoresComments(t *testing.T) {
	f, err := Parse(strings.ReplaceAll(sampleIR, "; preds", "; some comment preds"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 4 {
		t.Fatal("comment handling broke block parsing")
	}
}

// hugeBlockBodies name blocks far past what their input could hold.
// Each once crashed Parse: the label's number wrapped to a negative
// BlockID, or Parse created every block up to it.
var hugeBlockBodies = []struct{ name, src, want string }{
	{"label past int32", "func f()\nb2147483648:\n\tret 0\n}", `ir: line 2: bad block label "b2147483648:"`},
	{"jmp past int32", "func f()\nb0:\n\tjmp b2147483648\n}", `ir: line 3: bad jmp target "b2147483648"`},
	{"label past int64 wrap", "func ()\nb0000010000000000000:", `ir: line 2: bad block label "b0000010000000000000:"`},
	{"label past line count", "func f()\nb1000000000:", `ir: line 2: block label "b1000000000:" out of range for 2 lines of input`},
}

func TestParseRejectsHugeBlockNumbers(t *testing.T) {
	for _, c := range hugeBlockBodies {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := Parse(c.src)
		runtime.ReadMemStats(&after)
		if f != nil || err == nil || err.Error() != c.want {
			t.Errorf("%s: Parse returned %v, %v; want error %q", c.name, f, err, c.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: Parse allocated %d bytes", c.name, grew)
		}
	}
}
