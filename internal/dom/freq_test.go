package dom

import (
	"math"
	"testing"

	"fastcoalesce/internal/ir"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestFrequenciesStraightLine(t *testing.T) {
	f := buildCFG(t, 3, [][2]int{{0, 1}, {1, 2}})
	dt := New(f)
	fr := dt.EstimateFrequenciesInto(&FreqScratch{})
	for b := 0; b < 3; b++ {
		if !almost(fr[b], 1) {
			t.Fatalf("freq[%d] = %v, want 1", b, fr[b])
		}
	}
}

func TestFrequenciesBranchDilution(t *testing.T) {
	// Diamond: each arm runs half the time; the join recombines to 1.
	f := buildCFG(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	dt := New(f)
	fr := dt.EstimateFrequenciesInto(&FreqScratch{})
	if !almost(fr[1], 0.5) || !almost(fr[2], 0.5) {
		t.Fatalf("arm freqs = %v, %v, want 0.5", fr[1], fr[2])
	}
	if !almost(fr[3], 1) {
		t.Fatalf("join freq = %v, want 1", fr[3])
	}
}

func TestFrequenciesLoopMultiplier(t *testing.T) {
	// 0 -> 1(header) -> 2 -> 1 back edge; 1 -> 3 exit.
	f := buildCFG(t, 4, [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 1}})
	dt := New(f)
	fr := dt.EstimateFrequenciesInto(&FreqScratch{})
	if !almost(fr[1], 10) {
		t.Fatalf("header freq = %v, want 10", fr[1])
	}
	if !almost(fr[2], 5) {
		t.Fatalf("body freq = %v, want 5 (half of header)", fr[2])
	}
	if !almost(fr[3], 5) {
		t.Fatalf("exit freq = %v (header/2 through the exit arm)", fr[3])
	}
}

func TestFrequenciesNestedLoops(t *testing.T) {
	// outer header 1, inner header 2 (both single-block bodies chained):
	// 0->1; 1->2,5; 2->3; 3->2,4; 4->1 ; 5 exit.
	f := buildCFG(t, 6, [][2]int{
		{0, 1}, {1, 2}, {1, 5}, {2, 3}, {3, 2}, {3, 4}, {4, 1},
	})
	dt := New(f)
	fr := dt.EstimateFrequenciesInto(&FreqScratch{})
	// Inner header should be ~10x the outer body's flow into it.
	if fr[2] < 10*fr[1]/2*0.99 {
		t.Fatalf("inner header %v not amplified over outer %v", fr[2], fr[1])
	}
	// Deeper blocks strictly hotter than the entry.
	if fr[3] <= fr[0] {
		t.Fatalf("inner body %v not hotter than entry %v", fr[3], fr[0])
	}
}

func TestFrequenciesDistinguishArmFromLatch(t *testing.T) {
	// Loop with a conditional arm inside:
	// 0->1(hdr); 1->2,6; 2->3,4; 3->5; 4->5; 5->1(latch); 6 exit.
	// The arm blocks (3,4) must be colder than the latch (5).
	f := buildCFG(t, 7, [][2]int{
		{0, 1}, {1, 2}, {1, 6}, {2, 3}, {2, 4}, {3, 5}, {4, 5}, {5, 1},
	})
	dt := New(f)
	fr := dt.EstimateFrequenciesInto(&FreqScratch{})
	if !(fr[3] < fr[5]) || !(fr[4] < fr[5]) {
		t.Fatalf("arm freqs %v, %v not below latch %v", fr[3], fr[4], fr[5])
	}
	if !almost(fr[3]+fr[4], fr[5]) {
		t.Fatalf("arms (%v+%v) should sum to latch %v", fr[3], fr[4], fr[5])
	}
}

func TestFrequenciesIrreducibleDoesNotPanic(t *testing.T) {
	f := buildCFG(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 1}, {1, 3}, {2, 3}})
	dt := New(f)
	fr := dt.EstimateFrequenciesInto(&FreqScratch{})
	for b, v := range fr {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("freq[%d] = %v", b, v)
		}
	}
	_ = ir.NoBlock
}
