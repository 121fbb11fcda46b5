package ir

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzIRParse feeds arbitrary text to Parse. Parse must return a
// function or an error, never both and never neither, and must not
// panic; a function it returns must verify, and its printed text must
// parse back to a function that prints the same text. The seeds are
// testdata/*.ir plus the committed corpus, which holds the
// hugeBlockBodies inputs.
func FuzzIRParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ir"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no testdata/*.ir seeds: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := Parse(src)
		if (fn == nil) == (err == nil) {
			t.Fatalf("Parse returned function %v and error %v", fn != nil, err)
		}
		if fn == nil {
			return
		}
		if err := fn.Verify(); err != nil {
			t.Fatalf("parsed function fails Verify: %v", err)
		}
		text := fn.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("printed text does not parse: %v\n%s", err, text)
		}
		if text2 := again.String(); text2 != text {
			t.Fatalf("print, parse, print differs:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
		}
	})
}
