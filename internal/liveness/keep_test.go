package liveness_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/liveness"
)

// TestKeptMatchesUnfiltered restricts liveness to a seeded random keep
// set on the oracle's random φ-form functions and on the corpus: every
// kept name must get exactly the unfiltered solver's answer at every
// block, every dropped name must answer false and never be iterated. A
// dropped φ argument must not trip the φ seeding. One Scratch per
// solver is reused across all functions, so stale state would show.
func TestKeptMatchesUnfiltered(t *testing.T) {
	funcs := corpusFuncs(t)
	for i, f := range liveness.OracleFuncs() {
		funcs[fmt.Sprintf("oracle-%03d", i)] = f
	}
	labels := make([]string, 0, len(funcs))
	for label := range funcs {
		labels = append(labels, label)
	}
	sort.Strings(labels)

	rng := rand.New(rand.NewSource(2302))
	var full, kept liveness.Scratch
	checked, droppedPhiArgs := 0, 0
	for _, label := range labels {
		f := funcs[label]
		keep := make([]int32, f.NumVars())
		for v := range keep {
			keep[v] = -1
			if rng.Intn(3) != 0 {
				keep[v] = int32(v)
			}
		}
		droppedPhiArgs += countDroppedPhiArgs(f, keep)
		want := liveness.ComputeScratch(f, &full)
		got := liveness.ComputeKeptScratch(f, keep, &kept)
		for _, b := range f.Blocks {
			for v := ir.VarID(0); int(v) < f.NumVars(); v++ {
				wantIn, wantOut := want.LiveIn(b.ID, v), want.LiveOut(b.ID, v)
				if keep[v] < 0 {
					wantIn, wantOut = false, false
				}
				if got.LiveIn(b.ID, v) != wantIn || got.LiveOut(b.ID, v) != wantOut {
					t.Fatalf("%s: b%d %s (kept %v): in/out = %v/%v, want %v/%v\n%s", label, b.ID, f.VarName(v),
						keep[v] >= 0, got.LiveIn(b.ID, v), got.LiveOut(b.ID, v), wantIn, wantOut, f)
				}
				checked++
			}
			for _, it := range []liveness.Names{got.LiveInNames(b.ID), got.LiveOutNames(b.ID)} {
				for v, ok := it.Next(); ok; v, ok = it.Next() {
					if keep[v] < 0 {
						t.Fatalf("%s: b%d iterates dropped name %s", label, b.ID, f.VarName(v))
					}
				}
			}
		}
	}
	if checked < 10000 || droppedPhiArgs == 0 {
		t.Fatalf("only %d points checked and %d dropped φ arguments", checked, droppedPhiArgs)
	}
}

// countDroppedPhiArgs counts the φ arguments of f that keep drops.
func countDroppedPhiArgs(f *ir.Func, keep []int32) int {
	n := 0
	for _, b := range f.Blocks {
		for i := 0; i < b.NumPhis(); i++ {
			for _, a := range b.Instrs[i].Args {
				if keep[a] < 0 {
					n++
				}
			}
		}
	}
	return n
}
