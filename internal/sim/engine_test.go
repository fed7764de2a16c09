package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v, want 3ms", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events out of order: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New()
	ran := false
	e.Schedule(-time.Second, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %v, want 0", e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := New()
	var wake time.Duration
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		wake = p.Now()
	})
	e.Run()
	if wake != 5*time.Millisecond {
		t.Fatalf("woke at %v, want 5ms", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New()
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(2 * time.Millisecond)
		trace = append(trace, "a2")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(1 * time.Millisecond)
		trace = append(trace, "b1")
	})
	e.Run()
	want := []string{"a0", "b0", "b1", "a2"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestNestedGo(t *testing.T) {
	e := New()
	done := 0
	e.Go("parent", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Engine().Go("child", func(c *Proc) {
				c.Sleep(time.Millisecond)
				done++
			})
		}
		p.Sleep(2 * time.Millisecond)
	})
	e.Run()
	if done != 3 {
		t.Fatalf("children done = %d, want 3", done)
	}
	if e.Procs() != 0 {
		t.Fatalf("live procs = %d, want 0", e.Procs())
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	count := 0
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Millisecond)
			count++
		}
	})
	e.RunUntil(10 * time.Millisecond)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v", e.Now())
	}
	e.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100 after full run", count)
	}
}

func TestRunForAdvancesIdleClock(t *testing.T) {
	e := New()
	e.RunFor(7 * time.Second)
	if e.Now() != 7*time.Second {
		t.Fatalf("Now = %v, want 7s", e.Now())
	}
}

func TestQueueWakeOrder(t *testing.T) {
	e := New()
	q := NewQueue(e)
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Go(name, func(p *Proc) {
			q.Wait(p)
			order = append(order, name)
		})
	}
	e.Go("waker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.WakeOne()
		p.Sleep(time.Millisecond)
		q.WakeAll()
	})
	e.Run()
	want := []string{"w1", "w2", "w3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestBlockedDetection(t *testing.T) {
	e := New()
	q := NewQueue(e)
	e.Go("stuck", func(p *Proc) { q.Wait(p) })
	e.Run()
	blocked := e.Blocked()
	if len(blocked) != 1 || blocked[0] != "stuck" {
		t.Fatalf("Blocked = %v, want [stuck]", blocked)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := New()
	r := NewResource(e, 1)
	var finish []time.Duration
	for i := 0; i < 3; i++ {
		e.Go("user", func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(10 * time.Millisecond)
			r.Release(1)
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times = %v, want %v", finish, want)
		}
	}
}

func TestResourceParallelism(t *testing.T) {
	e := New()
	r := NewResource(e, 4)
	var last time.Duration
	for i := 0; i < 8; i++ {
		e.Go("user", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			last = p.Now()
		})
	}
	e.Run()
	// 8 jobs, 4 servers, 10ms each -> 2 waves -> 20ms.
	if last != 20*time.Millisecond {
		t.Fatalf("completion = %v, want 20ms", last)
	}
}

func TestResourceFIFOFairness(t *testing.T) {
	e := New()
	r := NewResource(e, 2)
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		e.Go("user", func(p *Proc) {
			r.Acquire(p, 1)
			order = append(order, i)
			p.Sleep(time.Millisecond)
			r.Release(1)
		})
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("admission order = %v, want ascending", order)
		}
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := New()
	r := NewResource(e, 2)
	if !r.TryAcquire(2) {
		t.Fatal("TryAcquire(2) on empty resource failed")
	}
	if r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) on full resource succeeded")
	}
	r.Release(1)
	if !r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) after release failed")
	}
}

func TestResourceMultiUnit(t *testing.T) {
	e := New()
	r := NewResource(e, 3)
	var got []string
	e.Go("big", func(p *Proc) {
		r.Acquire(p, 3)
		got = append(got, "big")
		p.Sleep(time.Millisecond)
		r.Release(3)
	})
	e.Go("small", func(p *Proc) {
		r.Acquire(p, 1)
		got = append(got, "small")
		r.Release(1)
	})
	e.Run()
	if got[0] != "big" || got[1] != "small" {
		t.Fatalf("order = %v; FIFO admission should let big go first", got)
	}
}

func TestWaitGroup(t *testing.T) {
	e := New()
	wg := NewWaitGroup(e)
	var doneAt time.Duration
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		i := i
		e.Go("worker", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			wg.Done()
		})
	}
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	e.Run()
	if doneAt != 3*time.Millisecond {
		t.Fatalf("waitgroup released at %v, want 3ms", doneAt)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := New()
	e.Go("boom", func(p *Proc) { panic("kaboom") })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate from Run")
		}
	}()
	e.Run()
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := New()
		r := NewResource(e, 2)
		var times []time.Duration
		for i := 0; i < 20; i++ {
			i := i
			e.Go("p", func(p *Proc) {
				p.Sleep(time.Duration(i%5) * time.Millisecond)
				r.Use(p, time.Duration(1+i%3)*time.Millisecond)
				times = append(times, p.Now())
			})
		}
		e.Run()
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	e := New()
	e.Go("looper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	e.Run()
}
