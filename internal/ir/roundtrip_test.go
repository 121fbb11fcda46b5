package ir_test

import (
	"strings"
	"testing"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
)

// TestRoundTrip prints and re-parses the hand-written sample and the
// lowered IR of every suite kernel. Parse must accept each printed text
// and give back the same instructions; the preds comments may differ,
// since Parse numbers a block's predecessors in the order their
// terminators appear. One more print and parse must then be stable.
// Two kernels, radbgx and radfgx, have a variable called br.
func TestRoundTrip(t *testing.T) {
	texts := []struct{ name, text string }{{"sample", ir.SampleIR}}
	for _, w := range bench.Workloads() {
		f, err := lang.CompileOne(w.Src)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		texts = append(texts, struct{ name, text string }{w.Name, f.String()})
	}
	for i, c := range texts {
		f, err := ir.Parse(c.text)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		text1 := f.String()
		if i > 0 && stripComments(text1) != stripComments(c.text) {
			t.Errorf("%s: parsed instructions differ:\n--- printed ---\n%s\n--- re-parsed ---\n%s", c.name, c.text, text1)
		}
		g, err := ir.Parse(text1)
		if err != nil {
			t.Errorf("%s: re-parse: %v\n%s", c.name, err, text1)
			continue
		}
		if text2 := g.String(); text1 != text2 {
			t.Errorf("%s: round trip unstable:\n--- first ---\n%s\n--- second ---\n%s", c.name, text1, text2)
		}
	}
}

// stripComments drops every line's ';' comment.
func stripComments(text string) string {
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		if c := strings.Index(l, ";"); c >= 0 {
			lines[i] = strings.TrimRight(l[:c], " ")
		}
	}
	return strings.Join(lines, "\n")
}
