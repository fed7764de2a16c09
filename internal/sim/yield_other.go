//go:build !linux

package sim

// osYield is a no-op where no portable thread yield exists: a waiting lane
// then spins its budget out and parks.
func osYield() {}
