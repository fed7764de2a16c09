// Cluster: deterministic parallel simulation across sharded engines.
//
// A Cluster owns N Domains, each wrapping its own Engine. Domains advance in
// lock-stepped epochs under a conservative virtual-time merge (classic
// conservative parallel discrete-event simulation): the fixed cross-domain
// link latency is the lookahead bound, so within one epoch every domain may
// safely run ahead on its own events without seeing the others — no event it
// could receive can land inside the window it is executing. Which domains can
// send to which is declared with Domain.Link; a domain synchronises only with
// the domains it can reach over links. Cross-domain sends become timestamped
// messages queued on per-pair single-producer / single-consumer outboxes; at
// each epoch barrier the coordinator merges all pending messages in (delivery
// time, source domain, source sequence) order and injects them into the
// destination engines before computing the next epoch.
//
// # Determinism
//
// The same seed produces byte-identical schedules whether the cluster runs
// on 1 worker or N workers:
//
//   - Within an epoch a domain executes alone on its own engine — its event
//     order is the engine's usual (timestamp, seq) order, unaffected by what
//     other domains do concurrently.
//   - Epoch boundaries are pure functions of the domains' next-event times,
//     which are themselves deterministic.
//   - Message injection is sorted by (delivery time, source domain, source
//     seq) — a total order independent of worker interleaving — so injected
//     events receive identical engine sequence numbers on every run.
//
// Wall-clock parallelism therefore never leaks into virtual time; the
// GOMAXPROCS-sweep digest tests pin this.
//
// # Epoch bound
//
// Links are undirected and all have the cluster's one latency L, so the link
// graph falls into connected components, and nothing a domain does can reach
// a domain of another component at any time: a Send without a Link panics.
// Each component therefore gets its own bound. With per-domain next-event
// times peek_j, domain i of component C may execute every event strictly
// before
//
//	limit_i = min( min_{j∈C, j≠i, j nonempty} peek_j + L,  m_C + 2L )
//
// where m_C is the minimum next-event time over C. The first term bounds
// messages sent directly by another busy member (they arrive no earlier than
// its next event plus one hop). The second bounds replies and relays: a
// member that is idle, or busy only later, can act on i's behalf only after
// a message reaches it (≥ m_C+L), so anything it sends on arrives at
// ≥ m_C+2L. Deeper relays are later still. The domain's own events never
// constrain it — self-sends are ordinary local events — so a component of
// one domain has no bound but the run's deadline and drains in one epoch.
//
// Inside a component the bound treats every pair of members as linked even
// where the graph is a star or a path. A bound that followed path lengths
// would be longer, but the barrier a message is injected at decides its
// engine sequence number, and with it the order of a message and a local
// event due at the same instant: moving barriers would move schedules.
//
// # Lanes and the epoch barrier
//
// Epochs run on lanes = min(workers, domains, GOMAXPROCS) goroutines. Lane 0
// is whichever goroutine calls Run: it computes the epoch and runs its own
// domains inline. Lanes 1… are plain goroutines started by the first Run —
// none is locked to an OS thread; process coroutines (iter.Pull) are
// created lazily by their first resume and carry no thread affinity. Domain
// i belongs to lane i % lanes for the cluster's lifetime: letting the next
// free lane claim the next domain ran at half the throughput in the
// prototype (engine state bounces between caches).
//
// The barrier is one count plus a gate per lane (lane.go). The coordinator
// sets pending to 1 (its own share), adds one for each lane that owns a
// runnable domain and posts that lane, runs lane 0's domains, and gives up
// its share; a worker runs its domains and decrements; whoever brings
// pending to zero has seen everyone finish — a worker then posts lane 0.
// These atomic operations are the only cross-lane synchronization: what a
// lane wrote before its decrement is visible to whoever observes the count
// it left, and the coordinator's peeks and limits are visible to a worker
// that observes its post. An epoch whose runnable domains all sit on lane 0
// skips the barrier, and a one-lane cluster has no workers at all — the
// same loop serves both.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// maxTime is a far-future sentinel used while computing epoch bounds.
// Dividing by four keeps `sentinel + 2*latency` from overflowing.
const maxTime = time.Duration(math.MaxInt64 / 4)

// Cluster is a set of simulation domains advanced together under a
// conservative virtual-time merge. Create one with NewCluster, build each
// domain's devices and processes on Domain(i).Engine(), Link the domains
// that send to each other, then drive the whole cluster with Run/RunUntil.
// Call Close when done: it stops the worker goroutines of a multi-lane
// cluster and the coroutines of every domain's engine.
//
// A Cluster must be driven from a single goroutine. While Run executes,
// each domain's state may only be touched from that domain's own processes
// and callbacks; between runs (and before the first) the owning goroutine
// may touch any domain directly.
type Cluster struct {
	latency time.Duration
	domains []*Domain
	lanes   []lane // lanes[0] is where the coordinator waits

	running bool
	spawned bool
	closed  bool
	wg      sync.WaitGroup // worker goroutines, for Close

	// The link graph's connected components, rebuilt by every Link:
	// comp[i] indexes domain i's entry in comps.
	comp  []int32
	comps []component

	stats  ClusterStats
	inbox  []xmsg          // merge scratch: all pending cross-domain messages
	peeks  []time.Duration // scratch: per-domain next-event time (maxTime = none)
	limits []time.Duration // scratch: per-domain epoch bound
	panics []any           // per-domain panic values from one epoch

	_       [cacheLine]byte // keep the workers' counter off the lines above
	pending atomic.Int32    // lanes still inside the epoch, the coordinator included
}

// ClusterStats counts what the merge loop did, from the coordinator's side
// and without reading a clock. Parks depends on the host; the rest is a
// function of the program and the lane count.
type ClusterStats struct {
	Epochs        uint64 // epochs executed
	BarrierEpochs uint64 // epochs that handed domains to another lane
	Messages      uint64 // cross-domain messages injected
	Parks         uint64 // times the coordinator parked or had to wake a parked worker
}

// component is one connected component of the link graph: the set of
// domains that share an epoch bound.
type component struct {
	size      int
	m, second time.Duration // scratch: the two smallest member peeks (maxTime when absent)
}

// Domain is one shard of a Cluster: an Engine plus the cross-domain link
// endpoints. Devices and processes bind to a domain by being constructed on
// its Engine.
type Domain struct {
	id      int
	c       *Cluster
	eng     *Engine
	linked  []bool   // linked[j]: this domain and domain j may exchange messages
	out     [][]xmsg // outbox per destination domain; written only by this domain
	sendSeq uint64
	calls   []*call // records of finished Calls made from this domain, for reuse
}

// xmsg is one cross-domain message: a callback to run in the destination
// engine at the delivery time. (at, src, seq) is a total order.
type xmsg struct {
	at  time.Duration
	src int32
	dst int32
	seq uint64
	fn  func()
}

// compare orders messages by (at, src, seq).
func (a xmsg) compare(b xmsg) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
}

// NewCluster returns a cluster of n domains whose links, once declared with
// Domain.Link, all have the given fixed latency (the conservative lookahead;
// it must be positive). The domains start unlinked. workers asks for that
// many goroutines to run epochs on, the caller of Run included; the cluster
// uses min(workers, n, GOMAXPROCS) of them, at least one. Every count
// produces byte-identical schedules.
func NewCluster(n int, latency time.Duration, workers int) *Cluster {
	if n <= 0 {
		panic("sim: cluster needs at least one domain")
	}
	if latency <= 0 {
		panic("sim: cluster link latency (lookahead) must be positive")
	}
	lanes := max(1, min(workers, n, runtime.GOMAXPROCS(0)))
	c := &Cluster{
		latency: latency,
		domains: make([]*Domain, n),
		lanes:   make([]lane, lanes),
		comp:    make([]int32, n),
		peeks:   make([]time.Duration, n),
		limits:  make([]time.Duration, n),
		panics:  make([]any, n),
	}
	for i := range c.lanes {
		c.lanes[i].wake = make(chan struct{}, 1)
	}
	for i := range c.domains {
		d := &Domain{id: i, c: c, eng: New(), linked: make([]bool, n), out: make([][]xmsg, n)}
		d.eng.dom = d
		c.domains[i] = d
	}
	c.findComponents()
	return c
}

// Domain returns domain i.
func (c *Cluster) Domain(i int) *Domain { return c.domains[i] }

// Events returns the total number of events processed across all domains.
func (c *Cluster) Events() uint64 {
	var n uint64
	for _, d := range c.domains {
		n += d.eng.Events()
	}
	return n
}

// Stats returns the merge-loop counters accumulated so far.
func (c *Cluster) Stats() ClusterStats { return c.stats }

// Close stops the cluster's worker goroutines, spinning or parked, waits
// for them to exit, and then closes every domain's engine (see
// Engine.Close: processes still parked unwind and run their deferred
// functions here, domain by domain). The cluster must not be run again
// afterwards. Close is idempotent.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	if c.running {
		panic("sim: Close called while the cluster is running")
	}
	c.closed = true
	for l := 1; c.spawned && l < len(c.lanes); l++ {
		c.lanes[l].post()
	}
	// The workers' exit orders every coroutine switch they made before the
	// stops below, which run on this goroutine.
	c.wg.Wait()
	for _, d := range c.domains {
		d.eng.close()
	}
}

// Run advances every domain until no events remain anywhere and no
// cross-domain messages are in flight. Like Engine.Run, processes still
// waiting on queues or resources are left blocked.
func (c *Cluster) Run() { c.RunUntil(-1) }

// RunUntil processes events with timestamps <= deadline in every domain,
// then sets each domain clock to deadline. A negative deadline drains the
// cluster completely.
func (c *Cluster) RunUntil(deadline time.Duration) {
	if c.closed {
		panic("sim: cluster used after Close")
	}
	if c.running {
		panic("sim: cluster Run called reentrantly")
	}
	c.running = true
	defer func() { c.running = false }()
	if !c.spawned {
		c.spawned = true
		c.wg.Add(len(c.lanes) - 1)
		for l := 1; l < len(c.lanes); l++ {
			go c.worker(l) // the one sanctioned home for raw goroutines: the cluster runtime
		}
	}
	for {
		c.inject()
		m := c.peekAll()
		if m == maxTime || (deadline >= 0 && m > deadline) {
			break
		}
		c.computeLimits(deadline)
		c.runEpoch()
		c.rethrow()
	}
	if deadline >= 0 {
		for _, d := range c.domains {
			d.eng.advanceTo(deadline)
		}
	}
}

// worker runs lane l's share of every epoch it is posted for, until Close.
func (c *Cluster) worker(l int) {
	defer c.wg.Done()
	for {
		c.lanes[l].await()
		if c.closed {
			return
		}
		c.runLane(l)
		if c.pending.Add(-1) == 0 {
			c.lanes[0].post()
		}
	}
}

// findComponents partitions the domains into the connected components of
// the link graph, numbered by their lowest member.
func (c *Cluster) findComponents() {
	c.comps = c.comps[:0]
	for i := range c.comp {
		c.comp[i] = -1
	}
	var todo []int
	for i := range c.domains {
		if c.comp[i] >= 0 {
			continue
		}
		k := int32(len(c.comps))
		c.comp[i] = k
		size := 0
		for todo = append(todo, i); len(todo) > 0; size++ {
			j := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			for peer, ok := range c.domains[j].linked {
				if ok && c.comp[peer] < 0 {
					c.comp[peer] = k
					todo = append(todo, peer)
				}
			}
		}
		c.comps = append(c.comps, component{size: size})
	}
}

// peekAll fills c.peeks and every component's two smallest next-event times,
// and returns the smallest of all (maxTime when no domain has an event).
func (c *Cluster) peekAll() (m time.Duration) {
	for k := range c.comps {
		c.comps[k].m, c.comps[k].second = maxTime, maxTime
	}
	m = maxTime
	for i, d := range c.domains {
		t := maxTime
		if at, ok := d.eng.peek(); ok {
			t = at
		}
		c.peeks[i] = t
		m = min(m, t)
		if k := &c.comps[c.comp[i]]; t < k.m {
			k.second = k.m
			k.m = t
		} else if t < k.second {
			k.second = t
		}
	}
	return m
}

// computeLimits derives each domain's epoch bound from the peek snapshot of
// its component: events strictly before the bound are safe to execute this
// epoch. A domain alone in its component, or in one with no event anywhere,
// is bounded by the deadline only.
func (c *Cluster) computeLimits(deadline time.Duration) {
	for i := range c.domains {
		limit := maxTime
		if k := &c.comps[c.comp[i]]; k.size > 1 && k.m != maxTime {
			limit = k.m + 2*c.latency // earliest reply, or arrival via a relay
			minOther := k.m
			if c.peeks[i] == k.m {
				minOther = k.second
			}
			if minOther != maxTime && minOther+c.latency < limit {
				limit = minOther + c.latency
			}
		}
		if deadline >= 0 && deadline+1 < limit {
			limit = deadline + 1
		}
		c.limits[i] = limit
	}
}

// runEpoch executes one epoch: post every lane that owns a runnable domain,
// run lane 0's domains here, then wait for the posted lanes unless they have
// all finished already.
func (c *Cluster) runEpoch() {
	c.stats.Epochs++
	c.pending.Store(1)
	kicked := false
	for l := 1; l < len(c.lanes); l++ {
		if c.runnable(l) {
			kicked = true
			c.pending.Add(1)
			if c.lanes[l].post() {
				c.stats.Parks++
			}
		}
	}
	c.runLane(0)
	if kicked {
		c.stats.BarrierEpochs++
		if c.pending.Add(-1) > 0 && c.lanes[0].await() {
			c.stats.Parks++
		}
	}
}

// runnable reports whether lane l owns a domain with work in this epoch.
func (c *Cluster) runnable(l int) bool {
	for i := l; i < len(c.domains); i += len(c.lanes) {
		if c.peeks[i] < c.limits[i] {
			return true
		}
	}
	return false
}

// runLane runs the current epoch on every runnable domain lane l owns, in
// id order. A panic is captured per domain, so every domain's epoch
// completes whichever lane it ran on.
func (c *Cluster) runLane(l int) {
	for i := l; i < len(c.domains); i += len(c.lanes) {
		if c.peeks[i] < c.limits[i] {
			c.runDomain(i)
		}
	}
}

func (c *Cluster) runDomain(i int) {
	defer func() {
		if pv := recover(); pv != nil {
			c.panics[i] = pv
		}
	}()
	c.domains[i].eng.runEpochBefore(c.limits[i])
}

// rethrow re-raises the lowest-domain panic from the last epoch, so the
// escaping panic is deterministic across lane counts.
func (c *Cluster) rethrow() {
	for i, pv := range c.panics {
		if pv != nil {
			clear(c.panics)
			panic(fmt.Errorf("sim: domain %d: %v", i, pv))
		}
	}
}

// inject drains every outbox and delivers the pending messages into their
// destination engines in (delivery time, source domain, source seq) order —
// a total order, so every run assigns the same engine sequence numbers to
// the same messages regardless of how lanes interleaved.
func (c *Cluster) inject() {
	buf := c.inbox[:0]
	for _, d := range c.domains {
		for dst, q := range d.out {
			if len(q) == 0 {
				continue
			}
			buf = append(buf, q...)
			d.out[dst] = q[:0]
		}
	}
	c.stats.Messages += uint64(len(buf))
	if len(buf) > 1 {
		slices.SortFunc(buf, xmsg.compare)
	}
	for i := range buf {
		msg := &buf[i]
		c.domains[msg.dst].eng.pushEvent(msg.at, msg.fn, nil)
		msg.fn = nil // drop the closure so the scratch buffer doesn't pin it
	}
	c.inbox = buf[:0]
}

// Cluster returns the owning cluster.
func (d *Domain) Cluster() *Cluster { return d.c }

// Engine returns the domain's engine. Construct the domain's devices and
// processes on it; do not call its Run methods directly — the cluster
// drives it.
func (d *Domain) Engine() *Engine { return d.eng }

// Now returns the domain's virtual clock.
func (d *Domain) Now() time.Duration { return d.eng.Now() }

// Go starts a process in this domain (shorthand for Engine().Go).
func (d *Domain) Go(name string, fn func(p *Proc)) *Proc { return d.eng.Go(name, fn) }

// Spawn starts a process in this domain without a handle, on a recycled
// Proc record (shorthand for Engine().Spawn).
func (d *Domain) Spawn(name string, fn func(p *Proc)) { d.eng.Spawn(name, fn) }

// Link declares that d and peer exchange messages: from here on Send and
// Call between them are legal, in either direction. Declaring a link twice,
// or from a domain to itself, changes nothing. Domains joined by a chain of
// links share an epoch bound (see the package comment), so a link costs
// barrier crossings whether or not a message ever uses it. Link panics
// while the cluster is running.
func (d *Domain) Link(peer *Domain) {
	if peer.c != d.c {
		panic("sim: Link across clusters")
	}
	if d.c.running {
		panic("sim: Link called while the cluster is running")
	}
	if peer == d || d.linked[peer.id] {
		return
	}
	d.linked[peer.id], peer.linked[d.id] = true, true
	d.c.findComponents()
}

// Send schedules fn to run in dst's domain one link latency after this
// domain's current virtual time; dst must be this domain or one it has a
// Link to. Messages between one (src, dst) pair are delivered in send order.
// Send must be called from within this domain's own execution (a process or
// callback running on its engine) or while the cluster is idle between runs.
//
//simlint:hotpath
func (d *Domain) Send(dst *Domain, fn func()) {
	if dst.c != d.c {
		panic("sim: Send across clusters")
	}
	at := d.eng.now + d.c.latency
	if dst == d {
		// A self-send is an ordinary local event — no merge involvement.
		d.eng.pushEvent(at, fn, nil)
		return
	}
	if !d.linked[dst.id] {
		// The epoch bound assumes this message cannot exist.
		panic(fmt.Sprintf("sim: domain %d sent to domain %d without a Link", d.id, dst.id))
	}
	d.out[dst.id] = append(d.out[dst.id], xmsg{
		at:  at,
		src: int32(d.id),
		dst: int32(dst.id),
		seq: d.sendSeq,
		fn:  fn,
	})
	d.sendSeq++
}

// Call runs fn as a new process in dst's domain — this domain or one it has
// a Link to — and parks p until it finishes. The request and its completion
// each take one link-latency hop, so the caller observes at least 2*Latency
// of round-trip time. fn's writes are visible to the caller when Call
// returns (the epoch barrier orders them); it is the building block for
// cross-domain request / completion pairs such as volume member I/O. The
// call itself allocates nothing once the domain has made as many call
// records as it has calls in flight at once: what a caller pays is its own
// closure.
//
//simlint:hotpath
func (d *Domain) Call(p *Proc, dst *Domain, name string, fn func(q *Proc)) {
	if dst == d {
		// Local fast path: no hops, run inline on the caller's process.
		fn(p)
		return
	}
	var c *call
	if n := len(d.calls); n > 0 {
		c = d.calls[n-1]
		d.calls = d.calls[:n-1]
	} else {
		c = d.newCall()
	}
	c.dst, c.name, c.fn, c.done = dst, name, fn, false
	d.Send(dst, c.fwd)
	for !c.done {
		c.wake.Wait(p)
	}
	c.fn = nil
	d.calls = append(d.calls, c)
}

// call is one Domain.Call in flight. Its three steps are method values
// bound when the record is made, so shipping them allocates nothing, and
// the record is recycled through the calling domain's free list.
//
// Both domains use the record, never the same field at the same time: the
// caller writes dst, name and fn before the request is sent and the callee
// only reads them, after the request's hop; done and wake belong to the
// caller's domain alone — the completion's hop is what carries the callee's
// "finished" there. The record goes back on the list after that, so no
// message can still refer to it.
type call struct {
	src, dst *Domain
	name     string
	fn       func(q *Proc)

	done bool  // the completion arrived
	wake Queue // where the caller parks, on src's engine

	fwd  func()        // c.arrive: the request, run in dst
	body func(q *Proc) // c.run: the process it starts in dst
	back func()        // c.finish: the completion, run in src
}

func (d *Domain) newCall() *call { //simlint:allow hotalloc free-list miss; steady state reuses the records of finished calls
	c := &call{src: d, wake: Queue{eng: d.eng}}
	c.fwd, c.body, c.back = c.arrive, c.run, c.finish
	return c
}

func (c *call) arrive() { c.dst.eng.Spawn(c.name, c.body) }

func (c *call) run(q *Proc) {
	c.fn(q)
	c.dst.Send(c.src, c.back)
}

func (c *call) finish() {
	c.done = true
	c.wake.WakeAll()
}
