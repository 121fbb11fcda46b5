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
