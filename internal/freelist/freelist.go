// Package freelist hands page-sized memory from a simulated device that is
// done to the next one.
//
// A crash-point campaign builds a fresh rig for every point and throws it
// away once the point is judged, so each rig's NAND page images, block slabs
// and cache frames used to die with it and the collector ran every few
// milliseconds. A rig that is torn down releases its devices
// (ssd.Device.Release); their owners put that memory on process-wide Lists,
// and an owner that misses its own free list takes from them before it
// calls make. A device that is never released never puts anything back.
//
// Every List is bounded, so what the process keeps for the next rig is
// fixed however many rigs release into it. Lists are safe for concurrent use:
// campaigns replay their points on several goroutines at once, each
// releasing and taking memory.
package freelist

import "sync"

// List is a bounded stack of spare values, safe for concurrent use.
type List[T any] struct {
	mu    sync.Mutex
	max   int
	spare []T
}

// New returns an empty list that keeps at most max values.
func New[T any](max int) *List[T] { return &List[T]{max: max} }

// Get pops a spare value; ok is false when the list is empty.
func (l *List[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	if n := len(l.spare) - 1; n >= 0 {
		x, ok = l.spare[n], true
		var zero T
		l.spare[n] = zero
		l.spare = l.spare[:n]
	}
	l.mu.Unlock()
	return x, ok
}

// Put keeps x for a later Get, or drops it when the list is full.
func (l *List[T]) Put(x T) {
	l.mu.Lock()
	if len(l.spare) < l.max {
		l.spare = append(l.spare, x)
	}
	l.mu.Unlock()
}

// Classes is a set of Lists keyed by a size class, each made on first use
// with the same bound.
type Classes[K comparable, T any] struct {
	mu    sync.Mutex
	max   int
	lists map[K]*List[T]
}

// NewClasses returns an empty set whose lists keep at most max values each.
func NewClasses[K comparable, T any](max int) *Classes[K, T] {
	return &Classes[K, T]{max: max, lists: make(map[K]*List[T])}
}

// Of returns the list of class k. Owners look their lists up once, when
// they are built.
func (c *Classes[K, T]) Of(k K) *List[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.lists[k]
	if l == nil {
		l = New[T](c.max)
		c.lists[k] = l
	}
	return l
}
