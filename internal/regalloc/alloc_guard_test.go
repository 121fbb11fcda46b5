package regalloc_test

import (
	"testing"

	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/regalloc"
)

// TestWarmAllocateAllocations pins the warm no-spill path's allocation
// count: with a warm Scratch and a function that colors in one round,
// AllocateScratch may allocate only the Result, its Colors slice, and
// the obs-free bookkeeping around them. The budget is deliberately a
// small constant — if this fails, a per-round make() crept back into the
// allocator (the scratch exists precisely to prevent that).
func TestWarmAllocateAllocations(t *testing.T) {
	_, f := prep(t, pressureSrc)
	var sc regalloc.Scratch
	opt := regalloc.Options{K: 32}
	if _, err := regalloc.AllocateScratch(f, opt, &sc); err != nil {
		t.Fatal(err) // warm-up: grows the scratch to f's high-water mark
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := regalloc.AllocateScratch(f, opt, &sc); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 4
	if avg > budget {
		t.Errorf("warm no-spill AllocateScratch allocates %.1f objects/run, budget %d", avg, budget)
	}
}

// TestWarmSpillingAllocateAllocations pins the warm spilling path's
// allocation count on a function that spills 9 names in two rounds (17
// reloads, 9 stores). Beyond the Result and its Colors, the call may
// allocate only what the rewritten code itself holds: the spill array's
// entry, the grown name table and one string per new name (26 slot
// indexes, one reload name per spilled name), and per round one
// instruction slice per touched block and one backing array for the new
// instructions' arguments — 44 objects. The input is cloned outside the
// measured calls, since allocation rewrites it.
func TestWarmSpillingAllocateAllocations(t *testing.T) {
	_, f := prep(t, pressureSrc)
	var sc regalloc.Scratch
	opt := regalloc.Options{K: 3}
	res, err := regalloc.AllocateScratch(f.Clone(), opt, &sc)
	if err != nil {
		t.Fatal(err) // warm-up: grows the scratch to the spilled code's high-water mark
	}
	if res.SpilledVars == 0 {
		t.Fatal("K=3 must spill on this function")
	}
	const runs = 50
	inputs := make([]*ir.Func, runs+1) // AllocsPerRun adds one warm-up call
	for i := range inputs {
		inputs[i] = f.Clone()
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		g := inputs[next]
		next++
		if _, err := regalloc.AllocateScratch(g, opt, &sc); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 44
	if avg > budget {
		t.Errorf("warm spilling AllocateScratch allocates %.1f objects/run, budget %d (%d spilled in %d rounds)",
			avg, budget, res.SpilledVars, res.Rounds)
	}
}

// TestWarmVerifyAllocations pins that checking a coloring with a warm
// Scratch allocates nothing: liveness reuses the Scratch's tables, and
// the interference walk keeps one live set and no graph.
func TestWarmVerifyAllocations(t *testing.T) {
	_, f := prep(t, pressureSrc)
	var sc regalloc.Scratch
	res, err := regalloc.AllocateScratch(f, regalloc.Options{K: 3}, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := regalloc.VerifyAllocationScratch(f, res.Colors, 3, &sc); err != nil {
		t.Fatal(err) // warm-up
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := regalloc.VerifyAllocationScratch(f, res.Colors, 3, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm VerifyAllocationScratch allocates %.1f objects/run, want 0", avg)
	}
}
