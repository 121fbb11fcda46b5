package liveness

import (
	"math/rand"

	"fastcoalesce/internal/ir"
)

// OracleFuncs regenerates, in order, the random φ-form functions with
// block-local names that TestLivenessAgainstOracle checks, for the
// external tests.
func OracleFuncs() []*ir.Func {
	rng := rand.New(rand.NewSource(424242))
	out := make([]*ir.Func, 250)
	for i := range out {
		f := randomCFGWithPhis(rng, 3+rng.Intn(10), 2+rng.Intn(5))
		addBlockLocals(rng, f)
		out[i] = f
	}
	return out
}

// UnreachableFuncs regenerates, in order, the random φ-form functions
// with unreachable blocks that TestWorklistVsRoundRobinUnreachable
// checks, for the external tests.
func UnreachableFuncs() []*ir.Func {
	rng := rand.New(rand.NewSource(919191))
	out := make([]*ir.Func, 300)
	for i := range out {
		out[i] = randomCFGKeepUnreachable(rng, 4+rng.Intn(12), 2+rng.Intn(6))
	}
	return out
}
