package lang

import (
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// TestNamesDoNotShareSource checks that no name a compiled function
// keeps points into the source text. A kept ir.Func (a cached serve
// result, say) would otherwise hold its whole source in memory.
func TestNamesDoNotShareSource(t *testing.T) {
	srcs := []string{`
func kern(n int, x []int, y []int) int {
	var acc int = 0
	for var i = 0; i < n; i = i + 1 {
		var t = x[i]
		if t % 2 == 0 {
			var acc = t * 2
			y[i] = acc
		}
		acc = acc + len(y)
	}
	return acc
}

func other(a int, b int) int {
	var c = a
	while c < b { c = c + 1 }
	return c
}`}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.kl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata/*.kl: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	for _, src := range srcs {
		funcs, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		hi := lo + uintptr(len(src))
		for _, f := range funcs {
			names := append([]string{f.Name}, f.VarNames...)
			for _, name := range append(names, f.ArrNames...) {
				p := uintptr(unsafe.Pointer(unsafe.StringData(name)))
				if name != "" && p >= lo && p < hi {
					t.Errorf("%s: name %q shares memory with the source", f.Name, name)
				}
			}
		}
	}
}
