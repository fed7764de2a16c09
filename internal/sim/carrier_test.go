package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// mustPanic runs fn and returns the text of the panic it must raise.
func mustPanic(t *testing.T, what string, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		fn()
		t.Fatalf("%s: no panic", what)
	}()
	return msg
}

// TestEngineCloseFreesCoroutines parks processes every way the engine
// offers, closes it, and checks that each one unwound through its deferred
// functions and that no goroutine is left behind.
func TestEngineCloseFreesCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	q := NewQueue(e)
	r := NewResource(e, 1)
	var unwound []string
	note := func(name string) func() { return func() { unwound = append(unwound, name) } }

	e.Go("finished", func(p *Proc) {
		defer note("finished")()
		p.Sleep(time.Second) // long enough that nobody reuses its carrier
	})
	e.Go("holder", func(p *Proc) {
		defer note("holder")()
		r.Acquire(p, 1)
		defer r.Release(1) // wakes "resource-blocked" during Close: harmless
		p.Sleep(time.Hour)
	})
	e.Go("queue-blocked", func(p *Proc) {
		defer note("queue-blocked")()
		q.Wait(p)
		t.Error("queue-blocked resumed past its park")
	})
	e.Go("resource-blocked", func(p *Proc) {
		defer note("resource-blocked")()
		r.Acquire(p, 1)
		t.Error("resource-blocked got the unit")
	})
	e.Go("re-parker", func(p *Proc) {
		defer note("re-parker")()
		defer p.Sleep(time.Second) // a park during the unwind unwinds again
		p.Sleep(time.Hour)
	})
	e.RunUntil(time.Minute)
	if got := fmt.Sprint(unwound); got != "[finished]" {
		t.Fatalf("before Close: unwound %s, want [finished]", got)
	}
	// Started only after the run: its start event is queued, no coroutine yet.
	e.Go("never-started", func(p *Proc) { t.Error("never-started ran") })

	if len(e.all) != 5 || len(e.idle) != 1 {
		t.Fatalf("%d carriers, %d idle, want 5 and 1 (finished's)", len(e.all), len(e.idle))
	}
	if got, want := runtime.NumGoroutine(), base+5; got != want {
		t.Fatalf("%d goroutines before Close, want %d", got, want)
	}
	e.Close()
	e.Close()
	if got, want := fmt.Sprint(unwound), "[finished holder queue-blocked resource-blocked re-parker]"; got != want {
		t.Fatalf("unwound %s, want %s", got, want)
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("%d goroutines after Close, want %d", got, base)
	}
	if e.unfinished() != 0 || len(e.Blocked()) != 0 || e.heap != nil || e.arena != nil || e.idle != nil || e.all != nil || e.spare != nil {
		t.Fatalf("Close left state behind: procs=%d blocked=%v heap=%d arena=%d", e.unfinished(), e.Blocked(), len(e.heap), len(e.arena))
	}
	if e.Now() != time.Minute {
		t.Fatalf("Close moved the clock to %v", e.Now())
	}
}

// TestEngineCloseContract pins what Close refuses and what it re-raises.
func TestEngineCloseContract(t *testing.T) {
	base := runtime.NumGoroutine()

	e := New()
	e.Go("closer", func(p *Proc) { e.Close() })
	if msg := mustPanic(t, "Close while running", e.Run); !strings.Contains(msg, "Close called while the engine is running") {
		t.Fatalf("Close while running: %q", msg)
	}
	e.Close()
	if msg := mustPanic(t, "Go after Close", func() { e.Go("late", func(*Proc) {}) }); !strings.Contains(msg, "Go on a closed engine") {
		t.Fatalf("Go after Close: %q", msg)
	}
	for name, run := range map[string]func(){"Run": e.Run, "RunUntil": func() { e.RunUntil(1) }} {
		if msg := mustPanic(t, name, run); !strings.Contains(msg, "Run on a closed engine") {
			t.Fatalf("%s after Close: %q", name, msg)
		}
	}

	// A real panic during the unwind comes out of Close, names its process,
	// and does not stop the other coroutines from being released.
	e = New()
	cleaned := false
	e.Go("tidy", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Hour)
	})
	e.Go("clumsy", func(p *Proc) {
		defer func() { panic("dropped it") }()
		p.Sleep(time.Hour)
	})
	e.Go("tidy-too", func(p *Proc) { p.Sleep(time.Hour) })
	e.RunUntil(time.Second)
	msg := mustPanic(t, "panic during unwind", e.Close)
	if !strings.Contains(msg, `"clumsy"`) || !strings.Contains(msg, "dropped it") {
		t.Fatalf("Close re-raised %q, want clumsy's panic", msg)
	}
	if !cleaned {
		t.Fatal("tidy's deferred function did not run")
	}
	e.Close() // already closed: nothing to re-raise

	c := NewCluster(2, time.Microsecond, 1)
	if msg := mustPanic(t, "Close on a domain's engine", c.Domain(0).Engine().Close); !strings.Contains(msg, "Cluster.Close") {
		t.Fatalf("Close on a domain's engine: %q", msg)
	}
	c.Close()

	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("%d goroutines at the end, want %d", got, base)
	}
}

// TestProcRecycle checks that finished processes hand their coroutine to
// the next one: sequential processes share one carrier, concurrent ones
// need one each, and a steady-state Go + finish allocates only the Proc and
// the caller's closure.
func TestProcRecycle(t *testing.T) {
	e := New()
	defer e.Close()
	ran := 0
	for i := 0; i < 10_000; i++ {
		e.Go("one-shot", func(p *Proc) {
			p.Sleep(time.Microsecond)
			ran++
		})
		e.Run()
	}
	if ran != 10_000 || len(e.all) != 1 || len(e.idle) != 1 {
		t.Fatalf("sequential: ran %d on %d carriers (%d idle), want 10000 on 1 (1 idle)", ran, len(e.all), len(e.idle))
	}

	const width = 7
	for round := 0; round < 1000; round++ {
		for i := 0; i < width; i++ {
			e.Go("burst", func(p *Proc) { p.Sleep(time.Duration(1+i) * time.Microsecond) })
		}
		e.Run()
	}
	if len(e.all) != width || len(e.idle) != width {
		t.Fatalf("bursts of %d: %d carriers (%d idle), want %d", width, len(e.all), len(e.idle), width)
	}

	allocs := testing.AllocsPerRun(200, func() {
		e.Go("steady", func(p *Proc) {
			p.Sleep(time.Microsecond)
			ran++
		})
		e.Run()
	})
	if allocs > 2 {
		t.Fatalf("steady-state Go + finish allocates %.1f, want at most 2 (the Proc and the closure)", allocs)
	}
}

// TestProcRecyclePanic: a body that panics on a recycled carrier takes the
// carrier with it, is blamed by its own name and not its predecessor's, and
// leaves the engine usable.
func TestProcRecyclePanic(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	e.Go("innocent", func(p *Proc) { p.Sleep(time.Microsecond) })
	e.Run()
	first := e.all[0]
	e.Go("culprit", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic("kaboom")
	})
	msg := mustPanic(t, "Run", e.Run)
	if !strings.Contains(msg, `"culprit"`) || !strings.Contains(msg, "kaboom") || strings.Contains(msg, "innocent") {
		t.Fatalf("Run panicked with %q, want culprit's kaboom", msg)
	}
	if len(e.all) != 0 || len(e.idle) != 0 {
		t.Fatalf("after the panic: %d carriers, %d idle, want none", len(e.all), len(e.idle))
	}
	ok := false
	e.Go("survivor", func(p *Proc) {
		p.Sleep(time.Microsecond)
		ok = true
	})
	e.Run()
	if !ok || len(e.all) != 1 || e.all[0] == first {
		t.Fatalf("engine did not carry on with a fresh carrier (ran=%t, carriers=%d)", ok, len(e.all))
	}
	e.Close()
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("%d goroutines after Close, want %d", got, base)
	}
}

// TestSpawnRecyclesProc follows one Proc record through four spawned
// processes: each runs under its own name — in Blocked, in panic attribution
// — whatever the record was called before; a body that panics takes the
// record out of circulation; Close unwinds a parked spawned process through
// its deferred functions; and a steady-state Spawn + finish allocates
// nothing.
func TestSpawnRecyclesProc(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	var first *Proc
	e.Spawn("first", func(p *Proc) {
		first = p
		p.Sleep(time.Microsecond)
	})
	e.Run()
	if len(e.spare) != 1 || e.spare[0] != first || e.unfinished() != 0 {
		t.Fatalf("after the first body: %d spare records, %d procs, want its record and 0", len(e.spare), e.unfinished())
	}

	q := NewQueue(e)
	e.Spawn("second", func(p *Proc) {
		if p != first || p.Name() != "second" {
			t.Errorf("second runs on record %p named %q, want the first's (%p) under its own name", p, p.Name(), first)
		}
		q.Wait(p)
	})
	e.Run()
	if got := fmt.Sprint(e.Blocked()); got != "[second]" || len(e.spare) != 0 {
		t.Fatalf("Blocked() = %s with %d spare, want [second] and 0", got, len(e.spare))
	}
	q.WakeOne()
	e.Run()

	e.Spawn("third", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic("kaboom")
	})
	msg := mustPanic(t, "Run", e.Run)
	if !strings.Contains(msg, `"third"`) || strings.Contains(msg, "first") || strings.Contains(msg, "second") {
		t.Fatalf("Run panicked with %q, want it blamed on third alone", msg)
	}
	if len(e.spare) != 0 || e.unfinished() != 0 {
		t.Fatalf("after the panic: %d spare records, %d procs, want none", len(e.spare), e.unfinished())
	}

	noop := func(p *Proc) { p.Sleep(time.Microsecond) }
	e.Spawn("steady", noop)
	e.Run()
	if allocs := testing.AllocsPerRun(200, func() {
		e.Spawn("steady", noop)
		e.Run()
	}); allocs != 0 {
		t.Fatalf("steady-state Spawn + finish allocates %.1f, want 0", allocs)
	}

	unwound := false
	e.Spawn("fourth", func(p *Proc) {
		defer func() { unwound = true }()
		q.Wait(p)
		t.Error("fourth resumed past its park")
	})
	e.Run()
	if got := fmt.Sprint(e.Blocked()); got != "[fourth]" {
		t.Fatalf("Blocked() = %s, want [fourth]", got)
	}
	e.Close()
	if !unwound || e.spare != nil {
		t.Fatalf("Close: deferred function ran %t, spare list dropped %t", unwound, e.spare == nil)
	}
	if msg := mustPanic(t, "Spawn after Close", func() { e.Spawn("late", noop) }); !strings.Contains(msg, "closed engine") {
		t.Fatalf("Spawn after Close: %q", msg)
	}
	// At most: a goroutine of an earlier test may still have been exiting
	// when base was read.
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after Close, want at most %d", got, base)
	}
}
