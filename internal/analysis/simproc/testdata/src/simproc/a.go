// Package simproc is analyzer testdata: raw goroutines outside
// internal/sim break deterministic replay and must be flagged.
package simproc

import "runtime"

func bad() {
	go func() {}() // want `raw go statement outside internal/sim`
}

func badNamed() {
	go worker() // want `raw go statement outside internal/sim`
}

func worker() {}

func closuresWithoutGoAreFine() {
	f := func() {}
	f()
	defer f()
}

func allowed() {
	go worker() //simlint:allow simproc audited: drains a host-side channel, never touches sim state
}

func pinsThread() {
	runtime.LockOSThread()         // want `runtime\.LockOSThread pins a goroutine to an OS thread`
	defer runtime.UnlockOSThread() // want `runtime\.UnlockOSThread pins a goroutine to an OS thread`
}

func allowedPin() {
	runtime.LockOSThread() //simlint:allow simproc audited: cgo callback thread required by a host library
}

func otherRuntimeCallsAreFine() {
	runtime.Gosched()
	_ = runtime.NumCPU()
}

type fakeRuntime struct{}

func (fakeRuntime) LockOSThread() {}

func methodOfOtherTypeIsFine() {
	var r fakeRuntime
	r.LockOSThread()
}
