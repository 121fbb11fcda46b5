package core

// CrossCheckConflicts makes every two-probe check 5 in this process
// report whether its answer matches scanConflict's, the occupancy-list
// scan that was once the only probe. stop restores the production path
// and returns how many checks ran and how many took the lookup probe.
func CrossCheckConflicts(report func(match bool)) (stop func() (calls, lookups int)) {
	var calls, lookups int
	conflictHook = func(c *coalescer, r1, r2 int, got bool) {
		calls++
		if min(c.lookupCost(r1), c.lookupCost(r2)) < int32(len(c.sc.occ[r1])+len(c.sc.occ[r2])) {
			lookups++
		}
		report(got == c.scanConflict(r1, r2))
	}
	return func() (int, int) {
		conflictHook = nil
		return calls, lookups
	}
}
