package sim

import "time"

// ring is a growable FIFO ring buffer. Push and pop are O(1) and the
// backing array is reused, so steady-state waiter traffic on queues and
// resources allocates nothing — unlike the copy-shift slices it replaces,
// whose front-removal was O(n) per wakeup.
type ring[T any] struct {
	buf  []T // length is always a power of two (or zero)
	head int
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// front returns a pointer to the oldest element without removing it.
func (r *ring[T]) front() *T {
	return &r.buf[r.head]
}

func (r *ring[T]) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 8
	}
	nb := make([]T, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}

// Queue is a FIFO wait queue for processes, the building block for
// condition-style synchronization. A process calls Wait to park; another
// process (or a callback event) calls WakeOne/WakeAll to resume waiters.
// Wakeups are scheduled at the current virtual instant, preserving FIFO
// order via event sequence numbers.
type Queue struct {
	eng     *Engine
	waiters ring[*Proc]
}

// NewQueue returns an empty wait queue bound to eng.
func NewQueue(eng *Engine) *Queue { return &Queue{eng: eng} }

// Len returns the number of waiting processes.
func (q *Queue) Len() int { return q.waiters.n }

// Wait parks p until a wakeup. The caller must re-check its condition after
// returning (Mesa semantics).
//
//simlint:hotpath
func (q *Queue) Wait(p *Proc) {
	q.waiters.push(p)
	p.park()
}

// WakeOne resumes the longest-waiting process, if any, and reports whether
// a process was woken.
//
//simlint:hotpath
func (q *Queue) WakeOne() bool {
	if q.waiters.n == 0 {
		return false
	}
	p := q.waiters.pop()
	q.eng.pushEvent(q.eng.now, nil, p)
	return true
}

// WakeAll resumes every waiting process in FIFO order.
func (q *Queue) WakeAll() {
	for q.waiters.n > 0 {
		p := q.waiters.pop()
		q.eng.pushEvent(q.eng.now, nil, p)
	}
}

// Resource is a counting resource with FIFO admission, modelling servers
// with limited concurrency: NAND planes, channel buses, NCQ slots, ...
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  ring[resWaiter]
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource returns a resource with the given capacity (units > 0).
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: eng, capacity: capacity}
}

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return r.waiters.n }

// Acquire obtains n units for p, blocking in FIFO order until available.
// n must be positive and must not exceed the capacity.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 {
		panic("sim: acquire units must be positive")
	}
	if n > r.capacity {
		panic("sim: acquire exceeds resource capacity")
	}
	if r.waiters.n == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	r.waiters.push(resWaiter{p: p, n: n})
	// Single park: Release applies the grant (inUse) before scheduling the
	// wakeup, and nothing else resumes a resource waiter, so the grant is
	// complete when park returns.
	p.park()
}

// Release returns n units (n > 0) and admits queued waiters in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 {
		panic("sim: release units must be positive")
	}
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: resource released below zero")
	}
	for r.waiters.n > 0 {
		w := r.waiters.front()
		if r.inUse+w.n > r.capacity {
			break
		}
		r.inUse += w.n
		r.eng.pushEvent(r.eng.now, nil, w.p)
		r.waiters.pop()
	}
}

// Use acquires one unit, holds it for d of virtual time, then releases it.
// It models a FIFO service station with service time d.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p, 1)
	p.Sleep(d)
	r.Release(1)
}

// WaitGroup counts outstanding work items within the simulation.
type WaitGroup struct {
	n int
	q Queue
}

// NewWaitGroup returns a wait group bound to eng.
func NewWaitGroup(eng *Engine) *WaitGroup { return &WaitGroup{q: Queue{eng: eng}} }

// Add increments the counter by delta.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.q.WakeAll()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.n > 0 {
		wg.q.Wait(p)
	}
}
