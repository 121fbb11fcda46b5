package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
)

// frontEndDigest is the SHA-256 of everything the kernel-language front
// end produces for the inputs frontEndInputs lists: the printed IR of
// every compiled function, under both lowering styles, or the error.
// It pins the front end's output and error messages, positions
// included, byte for byte. If a change alters either on purpose,
// recompute it and say why in the change.
const frontEndDigest = "25b84c26891b8990f3f30d0d6201935dc2edc15d72705092f238aed6075af685"

func TestFrontEndDigest(t *testing.T) {
	h := sha256.New()
	var buf []byte
	n := 0
	for _, src := range frontEndInputs(t) {
		for _, opt := range []lang.CompileOptions{{}, {SteerDestinations: true}} {
			buf = buf[:0]
			funcs, err := lang.CompileWith(src, opt)
			if err != nil {
				buf = append(append(append(buf, "error: "...), err.Error()...), '\n')
			}
			for _, f := range funcs {
				buf = f.AppendText(buf)
			}
			h.Write(append(buf, 0)) // one separator per compile
			n++
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != frontEndDigest {
		t.Errorf("front-end digest over %d compiles is %s, want %s", n, got, frontEndDigest)
	}
}

// TestScratchMatchesCold compiles every digest input, in order, on one
// reused lang.Scratch, as a driver worker does, and requires each result,
// function or error, to be byte-identical to a cold compile of the same
// source. The inputs mix valid functions with ones that fail to parse or
// to lower midway, so a compile after a failed one must see none of its
// state; the first two are such a pair, with a name the failed one
// declared before it stopped. Each function must also survive the
// next compile on the scratch unchanged.
func TestScratchMatchesCold(t *testing.T) {
	srcs := append([]string{
		"func f(a int) int {\n\tvar x = a\n\treturn y\n}\n",
		"func g(a int) int {\n\tvar x = a\n\treturn x\n}\n",
	}, frontEndInputs(t)...)
	var sc lang.Scratch
	render := func(f *ir.Func, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return f.String()
	}
	var prev *ir.Func
	var prevText string
	for i, src := range srcs {
		f, err := lang.CompileOneScratch(src, &sc)
		got := render(f, err)
		if want := render(lang.CompileOne(src)); got != want {
			t.Fatalf("input %d: on a reused scratch:\n%s\ncold:\n%s", i, got, want)
		}
		// A returned function shares nothing with the scratch: the
		// next compile must leave it as it was.
		if prev != nil && prev.String() != prevText {
			t.Fatalf("input %d: compiling it changed the function compiled before", i)
		}
		if err == nil {
			prev, prevText = f, got
		}
	}
}

// frontEndInputs returns the digest's inputs: the suite kernels, the
// kernel-language testdata and fuzz seeds, generated programs at the
// large workload's statement budgets, one size cycle of the corpus's
// generated family, and three broken variants of every suite kernel,
// cut or with a stray ')' at each multiple of 64 bytes (one of them also
// ending in a lexical error after the parse error).
func frontEndInputs(t *testing.T) []string {
	t.Helper()
	var srcs, kernels []string
	for _, w := range Workloads() {
		kernels = append(kernels, w.Src)
	}
	srcs = append(srcs, kernels...)

	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.kl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata/*.kl: %v", err)
	}
	seeds, err := filepath.Glob(filepath.Join("..", "lang", "testdata", "fuzz", "FuzzLangCompile", "*"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no FuzzLangCompile seeds: %v", err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(b))
	}
	for _, path := range seeds {
		src, err := parseFuzzV1(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		srcs = append(srcs, src)
	}

	for i, stmts := range []int{800, 960, 1120, 1280, 1440, 1600, 1760, 1920, 2080, 2240, 2400, 2560, 2720, 2880, 3040, 3200} {
		srcs = append(srcs, Generate(int64(i+1), GenConfig{Stmts: stmts, MaxDepth: 3, Scalars: 2, Arrays: 1}).Src)
	}
	corpus, err := NewCorpusSource(CorpusSpec{N: int64(len(DefaultCorpusSizes)), Families: []string{GenFamily}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range corpus.N() {
		srcs = append(srcs, corpus.JobAt(i).Src)
	}

	for _, src := range kernels {
		for k := 0; k < len(src); k += 64 {
			srcs = append(srcs, src[:k], src[:k]+")"+src[k:], src[:k]+")"+src[k:]+"@")
		}
	}
	return srcs
}

// BenchmarkFrontEnd times the front end over the suite kernels; one op
// is one kernel.
func BenchmarkFrontEnd(b *testing.B) {
	ws := Workloads()
	b.Run("Parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lang.Parse(ws[i%len(ws)].Src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CompileOne", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lang.CompileOne(ws[i%len(ws)].Src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestFrontEndAllocations pins the allocations of compiling the 29
// suite kernels from source cold, 3 695 objects or about 127 per kernel.
// The front end allocates the AST in chunks per node type, stages the IR
// in a few arrays and seals it into one allocation per kind, and
// allocates nothing per node, token, instruction, block, edge list or
// name; an overrun means such an allocation came back. The count
// includes the growth of one symbol-table map per function, so a Go
// release with another map layout may need the pin measured again.
func TestFrontEndAllocations(t *testing.T) {
	ws := Workloads()
	compileAll := func() {
		for _, w := range ws {
			if _, err := lang.CompileOne(w.Src); err != nil {
				t.Fatal(err)
			}
		}
	}
	avg := testing.AllocsPerRun(5, compileAll)
	const budget = 3695
	if avg > budget {
		t.Errorf("compiling the %d suite kernels allocates %.0f objects (%.0f per kernel), budget %d",
			len(ws), avg, avg/float64(len(ws)), budget)
	}
}
