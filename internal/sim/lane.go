package sim

import "sync/atomic"

// spinBudget is how many times a waiting lane polls its generation word
// before it parks; one poll is ≈0.3 ns, so with the yields below 1<<20 is
// well under a millisecond — a few dozen typical epochs. An epoch is tens of
// microseconds of work and waking a parked thread costs more than that, so
// parking is for idle stretches (between Runs, a long-descheduled peer),
// never the common case. Chosen from Cluster.Stats on the two-lane shards
// scenario when its four domains shared one epoch bound (2 CPUs, 7266
// barrier epochs of ≈56 events each, best of 5):
//
//	1<<10  14306 parks  1.0 M events/s      1<<18  3 parks  2.2 M
//	1<<14   6947 parks  0.8 M               1<<20  1 park   2.2 M
//	1<<16    120 parks  1.8 M               1<<22  0 parks  2.3 M
//
// against 1.8 M on one lane in the same minute. Any budget that parks in
// the steady state loses to not using a second lane at all.
const spinBudget = 1 << 20

// yieldEvery is how many polls pass between osYield calls while spinning.
// The yield is what keeps a spin safe when the host runs both lanes'
// threads on one CPU (an oversubscribed machine, -race test runs in
// parallel, a guest kernel that leaves a halted vCPU alone): without it the
// waiting lane burns the time slice its peer needs and shards drops to
// 0.3 M events/s; yielding every ≈0.3 µs holds it at 1.4–1.8 M, and costs
// nothing measurable when each lane has its own CPU.
const yieldEvery = 1 << 10

const cacheLine = 64

// lane is the barrier state of one epoch-running goroutine, alone on its
// cache line so a spinning owner shares nothing with the other lanes. Each
// post is consumed by exactly one await before the next post.
type lane struct {
	gen    atomic.Uint32 // posts received
	parked atomic.Bool   // owner is blocked, or about to block, on wake
	wake   chan struct{} // capacity 1: one token per post that cleared parked
	seen   uint32        // owner only: posts consumed
	_      [cacheLine - 24]byte
}

// post releases the lane's owner from its current (or next) await and
// reports whether the owner had parked and needed a channel wake-up.
func (ln *lane) post() bool {
	ln.gen.Add(1)
	if ln.parked.CompareAndSwap(true, false) {
		ln.wake <- struct{}{}
		return true
	}
	return false
}

// await blocks the owner until the next post: spinBudget polls, then a park
// on the wake channel. It reports whether it parked.
func (ln *lane) await() (parked bool) {
	for spins := 1; ln.gen.Load() == ln.seen; spins++ {
		if spins < spinBudget {
			if spins%yieldEvery == 0 {
				osYield()
			}
			continue
		}
		// Announce the park, then look again: a post that missed the flag
		// is caught here, one that saw it owes a token.
		ln.parked.Store(true)
		if ln.gen.Load() != ln.seen && ln.parked.CompareAndSwap(true, false) {
			break
		}
		<-ln.wake
		parked = true
	}
	ln.seen++
	return parked
}
