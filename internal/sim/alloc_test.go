package sim

import (
	"testing"
	"time"
)

// The scheduler hot paths must not allocate in steady state: the arena and
// free list recycle event slots, the heap reuses its backing array, and
// parked coroutines are resumed in place. These guards pin the
// 0 allocs/event acceptance criterion at the unit level, complementing the
// whole-device allocations per operation that cmd/bench reports and CI gates.

// TestScheduleZeroAlloc covers the callback fast path: Schedule + dispatch
// with a recycled arena slot.
func TestScheduleZeroAlloc(t *testing.T) {
	e := New()
	fired := 0
	fn := func() { fired++ }
	e.Schedule(0, fn) // warm up the arena and heap
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		e.Schedule(0, fn)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("Schedule/Run callback path allocates %.1f per event, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("callback never fired")
	}
}

// TestSleepWakeZeroAlloc covers the process path: queue wakeup, coroutine
// resume, Sleep re-park. The process is started (coroutine allocated)
// before measurement; steady-state resumes must be free.
func TestSleepWakeZeroAlloc(t *testing.T) {
	e := New()
	q := NewQueue(e)
	rounds := 0
	e.Go("sleeper", func(p *Proc) {
		for {
			q.Wait(p)
			p.Sleep(time.Microsecond)
			rounds++
		}
	})
	e.Run() // start the proc; it parks on q
	allocs := testing.AllocsPerRun(200, func() {
		q.WakeOne()
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("wake/resume/Sleep path allocates %.1f per round, want 0", allocs)
	}
	if rounds == 0 {
		t.Fatal("sleeper never ran")
	}
}

// TestTimerZeroAlloc covers the timer path: Reset and Stop recycle the
// same arena slot.
func TestTimerZeroAlloc(t *testing.T) {
	e := New()
	fired := 0
	tm := new(Timer)
	e.InitTimer(tm, func() { fired++ })
	tm.Reset(time.Microsecond) // warm up
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		tm.Reset(time.Microsecond)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("Timer Reset/fire path allocates %.1f per event, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("timer never fired")
	}
}
