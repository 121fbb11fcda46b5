package core_test

import (
	"fmt"
	"testing"

	"fastcoalesce/internal/bench"
	"fastcoalesce/internal/core"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/ssa"
)

// TestConflictProbesAgree runs step 1 over the CFG families, the kernel
// suite and generated programs with every check 5 cross-checked: the
// cheaper of the two probes must answer what the occupancy scan answers
// on every call. The irreducible ladder's long φ web must make the
// lookup probe the cheaper one at least once.
func TestConflictProbesAgree(t *testing.T) {
	var inputs []*ir.Func
	names := []string{}
	for _, fam := range bench.Families() {
		for _, n := range []int{8, 64, 512} {
			inputs = append(inputs, fam.Build(n))
			names = append(names, fmt.Sprintf("%s-%d", fam.Name, n))
		}
	}
	for _, w := range bench.Workloads() {
		f, err := lang.CompileOne(w.Src)
		if err != nil {
			t.Fatal(err)
		}
		inputs, names = append(inputs, f), append(names, w.Name)
	}
	for _, stmts := range []int{50, 200, 800} {
		w := bench.Generate(int64(stmts), bench.GenConfig{Stmts: stmts, MaxDepth: 4, Scalars: 3, Arrays: 2})
		f, err := lang.CompileOne(w.Src)
		if err != nil {
			t.Fatal(err)
		}
		inputs, names = append(inputs, f), append(names, w.Name)
	}

	ladderLookups, total := 0, 0
	var sc core.Scratch
	for i, f := range inputs {
		mismatches := 0
		stop := core.CrossCheckConflicts(func(match bool) {
			if !match {
				mismatches++
			}
		})
		st := ssa.Build(f, ssa.Options{Flavor: ssa.Pruned, FoldCopies: true})
		core.CoalesceScratch(f, core.Options{Dom: st.Dom}, &sc)
		calls, lookups := stop()
		total += calls
		if mismatches > 0 {
			t.Errorf("%s: %d of %d check-5 answers differ from the occupancy scan", names[i], mismatches, calls)
		}
		if names[i] == "irreducible-ladder-512" {
			ladderLookups = lookups
		}
	}
	if total == 0 {
		t.Fatal("no check 5 ran")
	}
	if ladderLookups == 0 {
		t.Error("irreducible-ladder-512 never took the lookup probe")
	}
}
