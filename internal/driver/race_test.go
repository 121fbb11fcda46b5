//go:build race

package driver_test

// parentPassBytes is what a worker's second pass over the suite kernels
// allocated under New with no front-end scratch and no bulk IR storage,
// measured as TestWarmPassAllocations measures it, under the race
// detector, whose instrumentation allocates a little more.
const parentPassBytes = 1601808
