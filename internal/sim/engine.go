// Package sim implements a deterministic discrete-event simulation engine.
//
// All devices, database engines and workload clients in this repository run
// in virtual time on a single Engine. Simulated concurrency is expressed with
// processes (Proc): coroutines that are scheduled cooperatively so that
// exactly one process executes at any instant. This makes every run
// deterministic for a given seed and lets multi-hour hardware experiments
// finish in milliseconds of wall-clock time.
//
// The engine orders events by (timestamp, sequence number), so events
// scheduled at the same virtual instant fire in the order they were created.
//
// # Scheduler internals
//
// Events live in a pooled arena ([]event plus a free list) and are ordered
// by an indexed 4-ary min-heap whose nodes carry the (timestamp, seq) key
// inline next to the arena index, so Schedule, Sleep and queue wakeups
// allocate nothing in steady state and sift comparisons stay in one array.
// Processes run on coroutines (iter.Pull): resuming one is a direct stack
// switch on the dispatching goroutine, costing tens of nanoseconds — no
// channel operation, no runtime scheduler pass, no OS-thread wakeup. The
// dispatch loop runs on the single goroutine that called Run: it pops events
// strictly by (timestamp, seq), runs callback events (Schedule, Timer)
// inline, and switches into the resumed process's coroutine for process
// events; the process switches back when it parks. None of this changes the
// event order — schedules, and every digest derived from them, are
// bit-identical to the boxed-heap channel engine this replaced.
//
// # Carriers
//
// The engine owns its coroutines. A carrier is one iter.Pull pair whose
// body loops: run the bound process's function, mark the process finished,
// yield idle, take the next process. A process is bound to a carrier by its
// first resume, which pops the idle list before it ever creates a
// coroutine, so a run that starts a process per request pays for as many
// coroutines as it has processes in flight at once, and each keeps the
// stack its earlier bodies grew. Which stack runs a body is invisible to
// the schedule: Go pushes the same start event either way.
//
// A process started with Spawn has no handle, so its Proc record is recycled
// the same way: it goes on Engine.spare when its body returns, and the next
// Spawn restarts it under its own name.
//
// Every carrier stays on Engine.all until Close stops it. A parked process
// then sees its yield return false and unwinds with a private sentinel panic
// that the carrier recovers: deferred functions run, the coroutine exits,
// and nothing is left for the runtime to keep alive. An engine that is
// dropped without Close leaks one goroutine per carrier, and each pins
// whatever its stack references.
package sim

import (
	"fmt"
	"iter"
	"time"
)

// Engine is a discrete-event simulator clock and scheduler.
// Create one with New, add processes with Go, then call Run.
//
// An Engine must only be accessed from the goroutine that calls Run and from
// processes started via Go (which are serialized by the engine); it is not
// safe for use from unrelated goroutines.
type Engine struct {
	now       time.Duration
	seq       uint64
	processed uint64

	arena []event   // event storage; stable slots addressed by index
	free  []int32   // recycled arena slots
	heap  []heapEnt // 4-ary min-heap ordered by (at, seq), key stored inline

	running  bool
	deadline time.Duration // active RunUntil deadline; negative = drain

	current  *Proc // process being resumed (panic attribution); nil in callbacks
	panicVal any   // re-raised by Run if a process or callback panicked

	all    []*carrier // every live coroutine, for Close
	idle   []*carrier // carriers whose process finished, ready for the next
	spare  []*Proc    // records of finished Spawn processes, ready for the next
	closed bool

	dom *Domain // owning cluster domain; nil for a standalone engine
}

type event struct {
	at   time.Duration
	seq  uint64
	fn   func() // callback event; nil when proc != nil
	proc *Proc  // process to resume; nil for callback events
	hpos int32  // position in heap; -1 when not queued
}

// heapEnt is one heap node: the event's sort key plus its arena index.
type heapEnt struct {
	at  time.Duration
	seq uint64
	idx int32
}

// New returns an empty engine with the virtual clock at zero.
func New() *Engine {
	return &Engine{deadline: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Events returns the total number of events processed since creation
// (process resumptions plus callback firings). Benchmark harnesses divide
// wall-clock time by this to get ns/event.
func (e *Engine) Events() uint64 { return e.processed }

// Schedule registers fn to run after delay d of virtual time.
// A negative delay is treated as zero.
//
//simlint:hotpath
func (e *Engine) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.pushEvent(e.now+d, fn, nil)
}

// Go starts a new process executing fn. The process begins running at the
// current virtual time (after already-pending events at this instant).
// Go may be called before Run or from within a running process.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e}
	e.start(p, name, fn)
	return p
}

// Spawn is Go without the handle. Nothing outside fn can then refer to the
// process, so when fn returns the engine takes the Proc record back, next to
// the carrier it ran on, and a later Spawn starts on it: a run that spawns a
// process per request allocates as many records as it has such processes in
// flight at once. fn must not let its *Proc outlive the call. The schedule is
// Go's: one start event at the current instant.
//
//simlint:hotpath
func (e *Engine) Spawn(name string, fn func(p *Proc)) {
	var p *Proc
	if n := len(e.spare); n > 0 {
		p = e.spare[n-1]
		e.spare[n-1] = nil
		e.spare = e.spare[:n-1]
	} else {
		p = &Proc{eng: e, recycle: true} //simlint:allow hotalloc spare-list miss; steady state reuses the records of finished spawned processes
	}
	e.start(p, name, fn)
}

// start puts a fresh or recycled process on the books and queues its first
// resume.
func (e *Engine) start(p *Proc, name string, fn func(p *Proc)) {
	if e.closed {
		panic("sim: Go on a closed engine")
	}
	p.name, p.body, p.dead = name, fn, false
	e.pushEvent(e.now, nil, p)
}

// Run processes events until none remain, then returns. Processes that are
// still waiting on a Queue or Resource when the event heap drains are left
// blocked. If any process panicked, Run re-panics with the original value
// after draining.
func (e *Engine) Run() {
	e.RunUntil(-1)
}

// RunUntil processes events with timestamps <= deadline and then sets the
// clock to deadline. A negative deadline means run until the heap is empty.
func (e *Engine) RunUntil(deadline time.Duration) {
	if e.dom != nil {
		panic("sim: engine is owned by a cluster domain; drive it via Cluster.Run")
	}
	if e.closed {
		panic("sim: Run on a closed engine")
	}
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	e.deadline = deadline
	e.loop()
	e.running = false
	e.deadline = -1
	if deadline >= 0 && deadline > e.now {
		e.now = deadline
	}
	if pv := e.panicVal; pv != nil {
		e.panicVal = nil
		panic(pv)
	}
}

// peek reports the timestamp of the earliest queued event, if any. The
// cluster merge uses it to compute epoch bounds.
func (e *Engine) peek() (time.Duration, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// advanceTo moves the clock forward to t without processing anything;
// Cluster.RunUntil uses it to align all domain clocks on the deadline.
func (e *Engine) advanceTo(t time.Duration) {
	if t > e.now {
		e.now = t
	}
}

// runEpochBefore processes every event with a timestamp strictly below
// limit — one conservative epoch. Unlike RunUntil it never advances the
// clock past the last processed event: between epochs the domain's time is
// simply its progress so far, and only the final Cluster.RunUntil aligns
// clocks on the deadline. Panics from processes or callbacks are re-raised
// to the caller (the cluster worker), which forwards them to the merge
// loop for deterministic rethrow.
func (e *Engine) runEpochBefore(limit time.Duration) {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	e.deadline = limit - 1
	e.loop()
	e.running = false
	e.deadline = -1
	if pv := e.panicVal; pv != nil {
		e.panicVal = nil
		panic(pv)
	}
}

// loop is the dispatch loop: it pops events in (timestamp, seq) order,
// running callbacks inline and switching into process coroutines. A panic in
// a process or callback aborts the run; RunUntil re-raises it.
//
//simlint:hotpath
func (e *Engine) loop() {
	defer func() {
		if r := recover(); r != nil {
			if p := e.current; p != nil {
				e.finish(p)
				if c := p.car; c != nil {
					e.drop(c) // its coroutine died with the panic
					p.car = nil
				}
				r = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			}
			e.panicVal = r
		}
		e.current = nil
	}()
	for len(e.heap) > 0 {
		at := e.heap[0].at
		if e.deadline >= 0 && at > e.deadline {
			return
		}
		idx := e.popMin()
		ev := &e.arena[idx]
		fn, proc := ev.fn, ev.proc
		e.freeEvent(idx)
		if at > e.now {
			e.now = at
		}
		e.processed++
		if proc == nil {
			e.current = nil
			fn()
			continue
		}
		e.current = proc
		e.resume(proc)
		e.current = nil
	}
}

// resume switches into p's carrier, binding p to one on its first
// resumption. It returns when p parks again or its body finishes.
func (e *Engine) resume(p *Proc) {
	c := p.car
	if c == nil {
		c = e.carrier()
		c.p, p.car = p, c
	}
	c.next()
	if p.dead {
		e.finish(p)
		c.p, p.car = nil, nil
		e.idle = append(e.idle, c)
		if p.recycle {
			e.spare = append(e.spare, p)
		}
	}
}

// finish marks a process whose body returned or panicked as finished.
func (e *Engine) finish(p *Proc) {
	p.dead = true
	p.body = nil
}

// carrier is one coroutine owned by the engine. It runs one process body at
// a time and idles between bodies; see "Carriers" in the package comment.
type carrier struct {
	next func() (struct{}, bool) // switches into the coroutine
	stop func()                  // makes the pending yield return false
	p    *Proc                   // bound process; nil while idle
	idx  int32                   // position in Engine.all
}

// unwind is the panic value that takes a parked process down its stack when
// the engine is closed. It is zero-sized, so raising it allocates nothing.
type unwind struct{}

// carrier returns an idle carrier, creating one when none is free.
func (e *Engine) carrier() *carrier {
	if n := len(e.idle); n > 0 {
		c := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return c
	}
	return e.newCarrier()
}

func (e *Engine) newCarrier() *carrier { //simlint:allow hotalloc idle-list miss; steady state reuses the carriers of finished processes
	c := &carrier{idx: int32(len(e.all))}
	c.next, c.stop = iter.Pull(iter.Seq[struct{}](c.run))
	e.all = append(e.all, c)
	return c
}

// drop forgets a carrier whose coroutine has exited.
func (e *Engine) drop(c *carrier) {
	last := len(e.all) - 1
	e.all[c.idx] = e.all[last]
	e.all[c.idx].idx = c.idx
	e.all[last] = nil
	e.all = e.all[:last]
}

// run is the coroutine body: run the bound process, report it finished,
// idle until the engine binds the next one. A false yield means Close: the
// idle carrier returns, a parked process arrives here on the unwind panic. A
// real panic passes through to the resume (or stop) call that switched in.
func (c *carrier) run(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, closing := r.(unwind); !closing {
				panic(r)
			}
		}
	}()
	for {
		p := c.p
		p.suspend = yield
		p.body(p)
		p.dead = true
		if !yield(struct{}{}) {
			return
		}
	}
}

// Close stops every coroutine the engine owns and releases the event heap.
// Processes still parked — sleeping, queued, waiting on a resource — unwind
// from their park, so their deferred functions run, inside Close, in the
// order their carriers were created; they must not block (a park during the
// unwind panics again) and should not start new work. A process that panics
// for real while unwinding is re-raised from Close once every coroutine has
// been stopped. Processes that never started are dropped with the heap.
//
// Close is idempotent and must not be called while the engine is running.
// Afterwards Go and Run panic; an engine dropped without Close leaks one
// goroutine per carrier. A cluster domain's engine is closed by
// Cluster.Close.
func (e *Engine) Close() {
	if e.dom != nil {
		panic("sim: engine is owned by a cluster domain; close it via Cluster.Close")
	}
	e.close()
}

func (e *Engine) close() {
	if e.closed {
		return
	}
	if e.running {
		panic("sim: Close called while the engine is running")
	}
	e.closed = true
	var first any
	for _, c := range e.all {
		if pv := c.halt(); pv != nil && first == nil {
			first = pv
		}
	}
	// Only now: deferred functions may still have released resources or
	// woken queues, and those events must land somewhere.
	e.heap, e.arena, e.free = nil, nil, nil
	e.idle, e.all, e.spare = nil, nil, nil
	if first != nil {
		panic(first)
	}
}

// halt stops c's coroutine and returns the panic, attributed to the bound
// process, if unwinding it raised a real one.
func (c *carrier) halt() (pv any) {
	defer func() {
		if r := recover(); r != nil {
			pv = fmt.Errorf("sim: process %q panicked during Close: %v", c.p.name, r)
		}
	}()
	c.stop()
	return nil
}

// Proc is a simulated process: a coroutine whose execution is interleaved
// deterministically with other processes by the Engine. All Proc methods
// must be called from the process itself (inside its body function).
type Proc struct {
	eng     *Engine
	name    string
	body    func(p *Proc)
	car     *carrier            // bound by the first resume, cleared at finish
	suspend func(struct{}) bool // car's yield, copied here so park reaches it in one load
	dead    bool                // body finished or panicked
	recycle bool                // started by Spawn: the record returns to eng.spare
}

// Name returns the name given to Engine.Go or Engine.Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Sleep suspends the process for d of virtual time.
//
//simlint:hotpath
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	e.pushEvent(e.now+d, nil, p)
	p.park()
}

// park switches back to the dispatch loop until another event resumes p.
// The caller must have arranged a wakeup (event, queue signal, ...).
//
// Fast path: when the earliest runnable event is p's own wakeup (common for
// sequential service loops sleeping through an idle stretch), p consumes it
// in place — the clock advances and the event counts as processed, but no
// coroutine switch happens. The pop order is unchanged: the event consumed
// is exactly the one the dispatch loop would have popped next.
//
// When the engine is being closed the switch returns false at once and park
// panics with the unwind sentinel instead of returning: the process body is
// abandoned where it stands and its deferred functions run.
func (p *Proc) park() {
	e := p.eng
	if len(e.heap) > 0 {
		top := e.heap[0]
		if e.arena[top.idx].proc == p && (e.deadline < 0 || top.at <= e.deadline) && !e.closed {
			at := top.at
			e.freeEvent(e.popMin())
			if at > e.now {
				e.now = at
			}
			e.processed++
			return
		}
	}
	if !p.suspend(struct{}{}) {
		panic(unwind{})
	}
}

// --- event arena and indexed min-heap ---

// pushEvent queues an event, reusing a free arena slot when one exists.
// It returns the arena index (used by Timer to cancel).
func (e *Engine) pushEvent(at time.Duration, fn func(), proc *Proc) int32 {
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{})
		idx = int32(len(e.arena) - 1)
	}
	ev := &e.arena[idx]
	ev.at = at
	ev.seq = e.seq
	e.seq++
	ev.fn = fn
	ev.proc = proc
	e.heap = append(e.heap, heapEnt{at: at, seq: ev.seq, idx: idx})
	ev.hpos = int32(len(e.heap) - 1)
	e.siftUp(len(e.heap) - 1)
	return idx
}

// freeEvent recycles an arena slot, dropping references so the GC can
// collect captured closures.
func (e *Engine) freeEvent(idx int32) {
	ev := &e.arena[idx]
	ev.fn = nil
	ev.proc = nil
	e.free = append(e.free, idx)
}

// less orders two heap entries by (at, seq) — a total order, since seq is
// unique per event.
func less(a, b *heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The heap is 4-ary and stores the (at, seq) sort key inline next to the
// arena index, so sifts compare without chasing into the arena. 4 children
// halve the depth of a binary heap; the key is a total order, so any correct
// heap pops events in exactly the same sequence — arity and layout are
// invisible to the simulated schedule (locked by the golden-digest tests).

func (e *Engine) siftUp(i int) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 4
		if !less(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		e.arena[h[i].idx].hpos = int32(i)
		i = parent
	}
	e.arena[h[i].idx].hpos = int32(i)
}

// siftDown restores the heap below i and reports whether i moved.
func (e *Engine) siftDown(i int) bool {
	h := e.heap
	n := len(h)
	start := i
	for {
		l := 4*i + 1
		if l >= n {
			break
		}
		m := l
		end := l + 4
		if end > n {
			end = n
		}
		for c := l + 1; c < end; c++ {
			if less(&h[c], &h[m]) {
				m = c
			}
		}
		if !less(&h[m], &h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		e.arena[h[i].idx].hpos = int32(i)
		i = m
	}
	e.arena[h[i].idx].hpos = int32(i)
	return i > start
}

// popMin removes and returns the arena index of the earliest event.
func (e *Engine) popMin() int32 {
	h := e.heap
	idx := h[0].idx
	last := len(h) - 1
	if last > 0 {
		h[0] = h[last]
		e.arena[h[0].idx].hpos = 0
	}
	e.heap = h[:last]
	if last > 1 {
		e.siftDown(0)
	}
	e.arena[idx].hpos = -1
	return idx
}

// removeEvent cancels a queued event and recycles its slot (Timer.Stop).
func (e *Engine) removeEvent(idx int32) {
	pos := int(e.arena[idx].hpos)
	if pos < 0 {
		return
	}
	h := e.heap
	last := len(h) - 1
	if pos != last {
		h[pos] = h[last]
		e.arena[h[pos].idx].hpos = int32(pos)
	}
	e.heap = h[:last]
	if pos < last && !e.siftDown(pos) {
		e.siftUp(pos)
	}
	e.arena[idx].hpos = -1
	e.freeEvent(idx)
}
