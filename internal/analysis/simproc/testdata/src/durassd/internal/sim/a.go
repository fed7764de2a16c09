// Package sim is analyzer testdata standing in for the real engine
// package: internal/sim owns the process handoff protocol and the cluster
// runtime's lane goroutines, so it is the one place raw goroutines are part
// of the design. OS-thread pinning is not: the lanes are plain goroutines.
package sim

import "runtime"

func resume() {
	go func() {}()
}

// worker mimics a cluster lane that pins itself: flagged even here.
func worker() {
	go func() {
		runtime.LockOSThread()         // want `runtime\.LockOSThread pins a goroutine to an OS thread`
		defer runtime.UnlockOSThread() // want `runtime\.UnlockOSThread pins a goroutine to an OS thread`
	}()
}
