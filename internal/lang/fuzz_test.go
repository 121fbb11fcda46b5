package lang

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLangCompile feeds arbitrary source to the front end. Compile must
// return functions or an error, never both and never neither, and must
// not panic or overflow the stack. The seeds are testdata/*.kl plus the
// committed corpus, which holds a body one level past maxNesting.
func FuzzLangCompile(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.kl"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no testdata/*.kl seeds: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		funcs, err := Compile(src)
		if (err == nil) == (len(funcs) == 0) {
			t.Fatalf("Compile returned %d functions and error %v", len(funcs), err)
		}
	})
}
