package liveness_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/ssa"
)

// FuzzLivenessSolvers parses arbitrary IR text and requires path
// exploration to give every block the bitset solver's live-in and
// live-out names, in order; a body that is not in φ-form is compared
// again after SSA construction. The seeds are testdata/*.ir and the
// committed FuzzIRParse corpus.
//
//	go test -run '^$' -fuzz FuzzLivenessSolvers -fuzztime 10s ./internal/liveness/
func FuzzLivenessSolvers(f *testing.F) {
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
	corpus, err := filepath.Glob(filepath.Join("..", "ir", "testdata", "fuzz", "FuzzIRParse", "*"))
	if err != nil || len(corpus) == 0 {
		f.Fatalf("no committed FuzzIRParse seeds: %v", err)
	}
	for _, path := range corpus {
		f.Add(irParseSeed(f, path))
	}
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := ir.Parse(src)
		if err != nil {
			return
		}
		var dense liveness.Scratch
		var paths liveness.PathScratch
		assertSameLists(t, "parsed", fn, &dense, &paths)
		if fn.CountPhis() == 0 {
			ssa.Build(fn, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
			assertSameLists(t, "SSA", fn, &dense, &paths)
		}
	})
}

// irParseSeed reads the one string of a committed FuzzIRParse corpus
// file ("go test fuzz v1" and a string(...) line).
func irParseSeed(f *testing.F, path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != 2 || string(lines[0]) != "go test fuzz v1" {
		f.Fatalf("%s: not a one-value corpus file", path)
	}
	lit, ok := bytes.CutPrefix(lines[1], []byte("string("))
	if !ok {
		f.Fatalf("%s: value is not a string", path)
	}
	src, err := strconv.Unquote(string(bytes.TrimSuffix(lit, []byte(")"))))
	if err != nil {
		f.Fatalf("%s: %v", path, err)
	}
	return src
}
