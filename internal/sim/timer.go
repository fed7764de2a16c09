package sim

import "time"

// Timer fires a fixed callback at a virtual instant, with O(log n) Reset
// and Stop. It is the callback fast path for sequential service loops: a
// device stage driven by a Timer costs one recycled arena event per firing
// — no goroutine, no channel handoff, and no allocation after the Timer
// itself. Use a Proc instead when the logic genuinely blocks (acquiring
// resources, waiting on queues mid-operation).
//
// A Timer fires at most once per Reset; Reset from within the callback
// re-arms it. Like everything else on the Engine, Timers are single-owner:
// call methods only from the engine's own processes and callbacks.
//
// A Timer may be embedded in a larger object (a pooled request record, say)
// and set up in place with InitTimer; it must not be copied or moved
// afterwards, and its zero value is not usable.
type Timer struct {
	eng  *Engine
	fn   func()
	wrap func() // t.fire as a method value, bound once by InitTimer
	idx  int32  // arena index of the pending event; -1 when idle
}

// InitTimer sets up t, wherever it lives, as an idle timer on e that will
// run fn each time it fires. It must not be called on a timer that has a
// firing pending.
func (e *Engine) InitTimer(t *Timer, fn func()) {
	*t = Timer{eng: e, fn: fn, idx: -1}
	t.wrap = t.fire
}

// fire is what the event loop calls: mark the timer idle, then run fn.
func (t *Timer) fire() {
	t.idx = -1
	t.fn()
}

// Reset (re)schedules the timer to fire after d of virtual time, cancelling
// any pending firing. A negative delay is treated as zero.
//
//simlint:hotpath
func (t *Timer) Reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if t.idx >= 0 {
		t.eng.removeEvent(t.idx)
	}
	t.idx = t.eng.pushEvent(t.eng.now+d, t.wrap, nil)
}

// Stop cancels a pending firing and reports whether one was pending.
func (t *Timer) Stop() bool {
	if t.idx < 0 {
		return false
	}
	t.eng.removeEvent(t.idx)
	t.idx = -1
	return true
}
