package serve

import (
	"fmt"
	"sort"
	"time"

	"durassd/internal/sim"
)

// Group is one shard's replica group: R stores, each on its own domain and
// device, fronted by quorum logic that lives in the gateway domain. A Put
// fans out to every reachable replica and acknowledges at W durable acks —
// so a quorum ack survives the loss of any W-1 replicas, by construction,
// and the ReplicaLoss crashpoint campaign audits exactly that. A Get reads
// one replica (rendezvous-ranked per key so the read load spreads and a
// dead replica moves only its own keys), with a hedged second read fired
// after a deterministic latency threshold.
//
// Every replica RPC carries a virtual-time deadline; the group retries a
// failed operation a bounded number of times with seeded-jitter exponential
// backoff. Per-replica circuit breakers open on consecutive hard failures
// (deadline, power failure, read-only degradation) so a dead replica costs
// one deadline per cooldown instead of one per request. A group that cannot
// reach W sheds writes with typed ErrShardUnavailable and keeps serving
// reads from whatever is alive.
//
// The group is the version authority: versions are assigned here, under
// per-key stripe locks, and shipped to replicas via Store.PutVersion —
// idempotent and monotonic, so a retry of a half-applied quorum attempt
// re-sends the same version and converges instead of forking.
//
// Failure bookkeeping is conservative: any replica that skipped, failed, or
// timed out a write is marked behind for that key until a later success
// (its own late completion, a retried RPC, or catch-up) proves otherwise.
// Reads never route to a replica that is behind on the requested key, which
// keeps monotonic reads through single-replica reads. A rebooted replica
// rejoins by draining its behind set from live peers — a delta catch-up,
// not a full rebuild: its own durable media is trusted (the DuraSSD
// argument) and only writes quorum-acked while it was away are transferred.
//
// All Group state is confined to the front (gateway) domain; replica RPC
// completions are shipped back there, so no locks are needed and every
// transition lands in deterministic virtual-time order.
//
// The serving path allocates nothing per operation. One attempt record
// carries a fan-out's or a read's tallies, wait queue and hedge timer, and
// one rpcCall record carries each replica RPC there and back — request,
// result, deadline and the three functions that move it between the
// domains. Both kinds are recycled through free lists on the group; see
// their declarations for who may touch which field when, and for why an
// attempt is not reusable the moment its waiter returns.
type Group struct {
	id    int
	front *sim.Domain
	reps  []*replica
	w     int
	rng   *sim.Rand // backoff jitter (front domain only)

	// Per-key write serialization: version assignment and quorum fan-out
	// for one key happen under its stripe, so versions are monotonic.
	stripes []*sim.Resource
	vers    map[uint64]uint64 // group version authority

	calls    []*rpcCall // answered RPC records, for reuse
	attempts []*attempt // attempt records nobody refers to any more, for reuse
	weights  []uint64   // readCandidates scratch: weights of the ranked replicas

	hedges      int64
	deadlines   int64
	retries     int64
	unavailable int64
	catchupKeys int64
}

// replica is the front-domain view of one group member.
type replica struct {
	st   *Store
	dom  *sim.Domain
	br   Breaker
	salt uint64
	// behind maps key -> highest version this replica is known (or assumed)
	// to be missing. Entries are added when a write RPC to the replica
	// skips, fails or times out, and removed when a success at or above the
	// version proves the replica caught up.
	behind     map[uint64]uint64
	catchingUp bool
}

// Replication timings and retry bounds.
const (
	callTimeout = 8 * time.Millisecond // per-replica RPC deadline
	maxRetries  = 2                    // retried attempts after the first
	// retryBase is the backoff base: attempt k sleeps retryBase<<k plus
	// jitter uniform in [0, retryBase<<k).
	retryBase = 200 * time.Microsecond
	// hedgeAfter is the hedged-read threshold: a read outstanding this long
	// fires a second read at the next-ranked replica.
	hedgeAfter = 1200 * time.Microsecond
)

const groupStripes = 64

// NewGroup builds a replica group over the given stores (each already on
// its own domain) fronted from the front domain, which it links to every
// replica's domain. Its write quorum W is a majority of the replicas.
func NewGroup(id int, front *sim.Domain, stores []*Store) (*Group, error) {
	if len(stores) == 0 {
		return nil, fmt.Errorf("serve: group %d needs at least one replica", id)
	}
	g := &Group{
		id:      id,
		front:   front,
		w:       len(stores)/2 + 1,
		rng:     sim.NewRand(0x5eed + int64(id)*1_000_003),
		stripes: make([]*sim.Resource, groupStripes),
		vers:    make(map[uint64]uint64),
	}
	for i := range g.stripes {
		g.stripes[i] = sim.NewResource(front.Engine(), 1)
	}
	for i, st := range stores {
		if st.Domain().Cluster() != front.Cluster() {
			return nil, fmt.Errorf("serve: group %d replica %d lives in a different cluster", id, i)
		}
		front.Link(st.Domain())
		g.reps = append(g.reps, &replica{
			st:     st,
			dom:    st.Domain(),
			salt:   replicaSalt(i),
			behind: make(map[uint64]uint64),
		})
	}
	return g, nil
}

// Behind returns the number of keys replica ri is known to be missing.
func (g *Group) Behind(ri int) int { return len(g.reps[ri].behind) }

// Live returns the number of replicas whose breakers are closed.
func (g *Group) Live() int {
	n := 0
	for _, r := range g.reps {
		if !r.br.Open() {
			n++
		}
	}
	return n
}

// BelowQuorum reports whether fewer than W replicas look healthy — the
// degraded state in which writes are shed and cache hits are stale-risk.
func (g *Group) BelowQuorum() bool { return g.Live() < g.w }

// Counters returns the group's cumulative robustness tallies.
func (g *Group) Counters() (hedges, deadlines, retries, unavailable, catchup int64) {
	return g.hedges, g.deadlines, g.retries, g.unavailable, g.catchupKeys
}

// BreakerOpens sums closed->open transitions across the group's replicas.
func (g *Group) BreakerOpens() int64 {
	var n int64
	for _, r := range g.reps {
		n += r.br.Opens()
	}
	return n
}

// replicaSalt derives replica ri's rendezvous salt (a pure function of the
// index, so tests and groups agree).
func replicaSalt(ri int) uint64 {
	return mix64(uint64(ri+1) * 0xbf58476d1ce4e5b9)
}

// rankInsert adds replica ri of weight w to a ranking kept heaviest first,
// the lower index first among equal weights when replicas arrive in index
// order. weights[i] is the weight of order[i]. Replica groups are a handful
// wide, so this is one step of an insertion sort: no closure, no
// reflection, nothing allocated once the slices have their capacity.
func rankInsert(order []int, weights []uint64, ri int, w uint64) ([]int, []uint64) {
	order, weights = append(order, ri), append(weights, w)
	i := len(order) - 1
	for ; i > 0 && weights[i-1] < w; i-- {
		order[i], weights[i] = order[i-1], weights[i-1]
	}
	order[i], weights[i] = ri, w
	return order, weights
}

// readCandidates fills order (owned by the caller, who keeps it across
// parks — which is why it is not group scratch) with the group's replicas
// ranked for a read of key, excluding replicas known to be behind on that
// key: a behind replica would serve a stale version, and consistency wins
// over one more read target.
func (g *Group) readCandidates(order []int, key uint64) []int {
	order, weights := order[:0], g.weights[:0]
	h := mix64(key)
	for ri, rep := range g.reps {
		if _, behind := rep.behind[key]; !behind {
			order, weights = rankInsert(order, weights, ri, mix64(h^rep.salt))
		}
	}
	g.weights = weights
	return order
}

// backoff returns the seeded-jitter exponential backoff for retry attempt k.
func (g *Group) backoff(attempt int) time.Duration {
	base := retryBase << uint(attempt)
	return base + time.Duration(g.rng.Int63n(int64(base)))
}

// rpcCall is one replica RPC, both halves of it: what the front ships, what
// the replica's process answers, and the front's race between that answer
// and the deadline. Its three steps — deliver at the replica, the process
// body there, the reply at the front — are method values bound when the
// record is made, so a call allocates nothing. Records are recycled through
// Group.calls; one goes back when its reply arrives, which is after the
// deadline if that fired, so no message can still refer to it.
//
// Two domains use a record in flight, and never the same field:
//
//   - The request (st, dst, ri, key, ver, put) is written by the front before
//     the request is sent and only read, by either side, until the record is
//     released.
//   - The result (gotVer, found, err) is written by the replica's process and
//     read by the front in reply; the reply's hop orders the two.
//   - at and tm belong to the front alone. The deadline may fire there
//     while the replica's process is still running, which is why the
//     replica's side must not read them.
type rpcCall struct {
	g *Group

	st       *Store
	dst      *sim.Domain
	ri       int
	key, ver uint64 // ver: puts only
	put      bool

	gotVer uint64 // gets only
	found  bool   // gets only
	err    error

	at *attempt  // whom to report to; nil once the deadline or the reply has
	tm sim.Timer // the deadline; fires expire

	fwd  func()            // c.deliver
	body func(q *sim.Proc) // c.serve
	back func()            // c.reply
}

// call takes an RPC record from the free list, or makes one, addresses it
// to replica ri on behalf of attempt a, and starts its deadline.
func (g *Group) call(a *attempt, ri int) *rpcCall {
	var c *rpcCall
	if n := len(g.calls); n > 0 {
		c = g.calls[n-1]
		g.calls = g.calls[:n-1]
	} else {
		c = g.newCall()
	}
	rep := g.reps[ri]
	c.st, c.dst, c.ri, c.key = rep.st, rep.dom, ri, a.key
	c.at = a
	a.refs++
	c.tm.Reset(callTimeout)
	return c
}

func (g *Group) newCall() *rpcCall { //simlint:allow hotalloc free-list miss; steady state reuses the records of answered RPCs
	c := &rpcCall{g: g}
	c.fwd, c.body, c.back = c.deliver, c.serve, c.reply
	g.front.Engine().InitTimer(&c.tm, c.expire)
	return c
}

// putRPC ships PutVersion(a.key, ver) to replica ri with a deadline. The
// attempt hears exactly once, through putResult: nil on a durable ack,
// ErrDeadlineExceeded if the deadline fires first, or the replica's error.
// Health and behind-tracking are updated on every outcome, settled or late.
//
//simlint:hotpath
func (g *Group) putRPC(a *attempt, ri int, ver uint64) {
	c := g.call(a, ri)
	c.put, c.ver = true, ver
	g.front.Send(c.dst, c.fwd)
}

// getRPC ships a read of a.key to replica ri with a deadline; the attempt
// hears exactly once, through getResult.
//
//simlint:hotpath
func (g *Group) getRPC(a *attempt, ri int) {
	c := g.call(a, ri)
	c.put = false
	g.front.Send(c.dst, c.fwd)
}

// deliver is the request arriving in the replica's domain.
//
//simlint:hotpath
func (c *rpcCall) deliver() {
	name := "serve/rget"
	if c.put {
		name = "serve/rput"
	}
	c.dst.Spawn(name, c.body)
}

// serve is the replica's process: do the operation, ship the result back.
//
//simlint:hotpath
func (c *rpcCall) serve(q *sim.Proc) {
	if c.put {
		c.err = c.st.PutVersion(q, c.key, c.ver)
	} else {
		c.gotVer, c.found, c.err = c.st.Get(q, c.key)
	}
	c.dst.Send(c.g.front, c.back)
}

// reply is the result arriving in the front domain. Late or not, the
// outcome counts for the replica's health; only a call the deadline has not
// settled still has an attempt to tell.
//
//simlint:hotpath
func (c *rpcCall) reply() {
	c.health(c.err)
	if c.at != nil {
		c.tm.Stop()
		c.settle(c.gotVer, c.found, c.err)
	}
	c.err = nil
	c.g.calls = append(c.g.calls, c)
}

// expire is the deadline firing before the reply arrived. The record stays
// out until the reply does arrive.
//
//simlint:hotpath
func (c *rpcCall) expire() {
	c.g.deadlines++
	c.health(ErrDeadlineExceeded)
	c.settle(0, false, ErrDeadlineExceeded)
}

// health records an outcome on the replica's breaker and, for a write, its
// behind set.
func (c *rpcCall) health(err error) {
	g := c.g
	switch {
	case c.put:
		g.finishPut(c.ri, c.key, c.ver, err)
	case err == nil:
		g.reps[c.ri].br.Success()
	default:
		g.reps[c.ri].br.Failure(g.front.Now())
	}
}

// settle reports the call's outcome to its attempt and lets go of it.
func (c *rpcCall) settle(ver uint64, found bool, err error) {
	a := c.at
	c.at = nil
	if c.put {
		a.putResult(err)
	} else {
		a.getResult(ver, found, err)
	}
}

// finishPut records the outcome of a write RPC on replica health and
// behind-tracking. It runs for every outcome, including completions that
// arrive after their deadline already fired — a late success still proves
// the replica has the write.
func (g *Group) finishPut(ri int, key, ver uint64, err error) {
	rep := g.reps[ri]
	if err == nil {
		rep.br.Success()
		if bv, ok := rep.behind[key]; ok && bv <= ver {
			delete(rep.behind, key)
		}
		return
	}
	rep.br.Failure(g.front.Now())
	if rep.behind[key] < ver {
		rep.behind[key] = ver
	}
}

// attempt is one quorum fan-out or one hedged read in the front domain: the
// tallies its RPCs report into, the queue its waiter parks on, and for a
// read the candidate order and the hedge timer. Records are recycled
// through Group.attempts, and the queue's ring, the order's backing array
// and the timer's binding stay with the record.
//
// An attempt outlives its waiter. A Put returns at W acks while the RPC to
// the remaining replica is still out, and that RPC's report — its reply or
// its deadline, whichever settles it — still tallies here and wakes the
// queue. Were the record already serving the next operation, that would be
// a wrong tally and a stray wakeup. So refs counts the waiter plus every
// RPC that has not reported, and the record goes back only at zero.
type attempt struct {
	g    *Group
	key  uint64
	refs int
	wake *sim.Queue // the waiter; every report wakes it to re-check

	acks, fails int // acks: writes only
	firstErr    error

	// Reads only.
	done     bool // a replica answered; ver and found are its answer
	ver      uint64
	found    bool
	order    []int // candidates, best first
	next     int   // first candidate not tried yet
	launched int
	hedge    sim.Timer // fires hedged
}

// attempt takes a record for one attempt on key, holding the waiter's
// reference.
func (g *Group) attempt(key uint64) *attempt {
	var a *attempt
	if n := len(g.attempts); n > 0 {
		a = g.attempts[n-1]
		g.attempts = g.attempts[:n-1]
	} else {
		a = g.newAttempt()
	}
	a.key, a.refs = key, 1
	return a
}

func (g *Group) newAttempt() *attempt { //simlint:allow hotalloc free-list miss; steady state reuses the records of finished attempts
	a := &attempt{g: g, wake: sim.NewQueue(g.front.Engine())}
	g.front.Engine().InitTimer(&a.hedge, a.hedged)
	return a
}

// drop gives up one reference — the waiter leaving, or one RPC having
// reported — and recycles the record with the last.
func (a *attempt) drop() {
	if a.refs--; a.refs > 0 {
		return
	}
	a.acks, a.fails, a.firstErr = 0, 0, nil
	a.done, a.next, a.launched = false, 0, 0
	a.g.attempts = append(a.g.attempts, a)
}

func (a *attempt) fail(err error) {
	a.fails++
	if a.firstErr == nil {
		a.firstErr = err
	}
}

// putResult is a write RPC reporting, exactly once.
func (a *attempt) putResult(err error) {
	if err == nil {
		a.acks++
	} else {
		a.fail(err)
	}
	a.wake.WakeAll()
	a.drop()
}

// getResult is a read RPC reporting, exactly once. The first answer wins.
func (a *attempt) getResult(ver uint64, found bool, err error) {
	if err != nil {
		a.fail(err)
	} else if !a.done {
		a.done, a.ver, a.found = true, ver, found
	}
	a.wake.WakeAll()
	a.drop()
}

// launchNext sends the read to the best candidate not tried yet whose
// breaker admits it, and reports whether there was one.
func (a *attempt) launchNext() bool {
	g := a.g
	for a.next < len(a.order) {
		ri := a.order[a.next]
		a.next++
		if !g.reps[ri].br.Allow(g.front.Now()) {
			continue
		}
		a.launched++
		g.getRPC(a, ri)
		return true
	}
	return false
}

// hedged is the hedge timer firing: the read has been out for hedgeAfter.
// The waiter stops the timer before it leaves, so it never fires for a
// record that has moved on; it can fire in the instant between the answer
// and the waiter's resumption.
//
//simlint:hotpath
func (a *attempt) hedged() {
	if !a.done && a.launchNext() {
		a.g.hedges++
	}
}

// Put durably writes the next version of key at quorum and returns it. A
// nil error means W replicas acknowledged the version as durable — the
// group's commit ack, the thing the ReplicaLoss campaign audits. Attempts
// that miss quorum are retried with backoff (a half-applied attempt re-sends
// the same version, so retries converge); when the group cannot reach W the
// write is shed with ErrShardUnavailable.
//
//simlint:hotpath
func (g *Group) Put(p *sim.Proc, key uint64) (uint64, error) {
	lock := g.stripes[mix64(key)%groupStripes]
	lock.Acquire(p, 1)
	defer lock.Release(1)
	// Version advances at assignment, not at success: a failed attempt must
	// never share a version with the next logical write, or the idempotent
	// replica-side dedupe would eat the newer one.
	ver := g.vers[key] + 1
	g.vers[key] = ver
	for attempt := 0; ; attempt++ {
		err := g.putQuorum(p, key, ver)
		if err == nil {
			return ver, nil
		}
		if attempt >= maxRetries {
			return 0, fmt.Errorf("serve: group %d put key %d: %w", g.id, key, err) //simlint:allow hotalloc the write failed after every retry; the error names the key
		}
		g.retries++
		p.Sleep(g.backoff(attempt))
	}
}

// putQuorum runs one fan-out attempt: launch a write RPC at every replica
// whose breaker admits it, count skipped replicas as immediate failures,
// and wait until W acks arrive or quorum becomes impossible.
//
//simlint:hotpath
func (g *Group) putQuorum(p *sim.Proc, key, ver uint64) error {
	now := p.Now()
	a := g.attempt(key)
	for ri, rep := range g.reps {
		if !rep.br.Allow(now) {
			// Skipped: the replica is presumed down and will need this write.
			if rep.behind[key] < ver {
				rep.behind[key] = ver
			}
			a.fails++
			continue
		}
		g.putRPC(a, ri, ver)
	}
	for a.acks < g.w && a.fails <= len(g.reps)-g.w {
		a.wake.Wait(p)
	}
	acks, firstErr := a.acks, a.firstErr
	a.drop() // RPCs still out keep the record until they have reported
	if acks >= g.w {
		return nil
	}
	g.unavailable++
	if firstErr != nil {
		return fmt.Errorf("%w: %d/%d acks: %w", ErrShardUnavailable, acks, g.w, firstErr) //simlint:allow hotalloc the attempt missed quorum; the error carries the tally and the first cause
	}
	return fmt.Errorf("%w: %d/%d acks, all replicas skipped", ErrShardUnavailable, acks, g.w) //simlint:allow hotalloc the attempt missed quorum with every breaker open
}

// Get reads key from the group: the rendezvous-preferred replica first,
// a hedged second read if the first is still outstanding after hedgeAfter,
// and sequential failover through the remaining candidates on failure.
// Exhausted attempts are retried with backoff; a group with no replica able
// to serve the key returns ErrShardUnavailable.
//
//simlint:hotpath
func (g *Group) Get(p *sim.Proc, key uint64) (uint64, bool, error) {
	for attempt := 0; ; attempt++ {
		ver, found, err := g.getOnce(p, key)
		if err == nil {
			return ver, found, nil
		}
		if attempt >= maxRetries {
			return 0, false, fmt.Errorf("serve: group %d get key %d: %w", g.id, key, err) //simlint:allow hotalloc the read failed after every retry; the error names the key
		}
		g.retries++
		p.Sleep(g.backoff(attempt))
	}
}

// getOnce runs one read attempt with hedging and failover.
//
//simlint:hotpath
func (g *Group) getOnce(p *sim.Proc, key uint64) (uint64, bool, error) {
	a := g.attempt(key)
	a.order = g.readCandidates(a.order, key)
	if !a.launchNext() {
		a.drop()
		g.unavailable++
		return 0, false, fmt.Errorf("%w: no replica can serve the read", ErrShardUnavailable) //simlint:allow hotalloc no replica is both current on the key and admitted by its breaker
	}
	a.hedge.Reset(hedgeAfter)
	for !a.done {
		if a.fails == a.launched && !a.launchNext() {
			break // every candidate tried and failed
		}
		a.wake.Wait(p)
	}
	a.hedge.Stop()
	done, ver, found, firstErr := a.done, a.ver, a.found, a.firstErr
	a.drop() // a hedged or late RPC still out keeps the record until it has reported
	if done {
		return ver, found, nil
	}
	g.unavailable++
	if firstErr != nil {
		return 0, false, fmt.Errorf("%w: %w", ErrShardUnavailable, firstErr) //simlint:allow hotalloc every candidate failed; the error carries the first cause
	}
	return 0, false, fmt.Errorf("%w: no replica answered the read", ErrShardUnavailable) //simlint:allow hotalloc every candidate failed
}

// callPut runs one write RPC as a parking Domain.Call, with no deadline.
// Catch-up uses it: a replica fresh out of reboot sits far ahead of the
// front on its own virtual clock (recovery time elapsed only there), so a
// front-clock deadline would misfire on skew, not slowness — and a dead
// target fails the call fast anyway. Health and behind bookkeeping are
// maintained exactly as on the deadline path.
func (g *Group) callPut(p *sim.Proc, ri int, key, ver uint64) error {
	rep := g.reps[ri]
	st := rep.st
	var err error
	g.front.Call(p, rep.dom, "serve/catchup-put", func(q *sim.Proc) {
		err = st.PutVersion(q, key, ver)
	})
	g.finishPut(ri, key, ver, err)
	return err
}

// callGet runs one read RPC as a parking Domain.Call (see callPut for why
// catch-up traffic carries no deadline).
func (g *Group) callGet(p *sim.Proc, ri int, key uint64) (uint64, bool, error) {
	rep := g.reps[ri]
	st := rep.st
	var (
		ver   uint64
		found bool
		err   error
	)
	g.front.Call(p, rep.dom, "serve/catchup-get", func(q *sim.Proc) {
		ver, found, err = st.Get(q, key)
	})
	if err == nil {
		rep.br.Success()
	} else {
		rep.br.Failure(p.Now())
	}
	return ver, found, err
}

// ReplicaRebooted is the rejoin notification: replica ri's node came back
// (its Reboot completed with the given error). On success a catch-up
// process starts in the front domain; on failure the breaker stays open.
// Must be called from the front domain's execution.
func (g *Group) ReplicaRebooted(ri int, rebootErr error) {
	if rebootErr != nil {
		return
	}
	g.front.Go(fmt.Sprintf("serve/catchup-%d-%d", g.id, ri), func(p *sim.Proc) {
		g.CatchUp(p, ri)
	})
}

// CatchUp drains replica ri's behind set from live peers: for each key the
// replica missed, the current version is read from the best peer holding it
// and re-written to ri at that version. This is the FaCE-style rejoin — a
// delta transfer of what was quorum-acked while the replica was away, not a
// full rebuild, because the replica's own durable media is trusted for
// everything it acked before going down. Keys whose transfer fails stay in
// the behind set (reads keep avoiding them) for the next pass or the next
// rejoin. Returns the number of keys transferred.
func (g *Group) CatchUp(p *sim.Proc, ri int) int {
	rep := g.reps[ri]
	if rep.catchingUp {
		return 0
	}
	rep.catchingUp = true
	defer func() { rep.catchingUp = false }()
	transferred := 0
	const maxPasses = 8
	for pass := 0; pass < maxPasses && len(rep.behind) > 0; pass++ {
		// Snapshot in sorted key order: the transfer schedule must never
		// depend on map iteration order.
		keys := make([]uint64, 0, len(rep.behind))
		for k := range rep.behind {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		progress := false
		for _, k := range keys {
			target, ok := rep.behind[k]
			if !ok {
				continue // healed meanwhile by a late completion or a new write
			}
			ver, ok2 := g.readFromPeer(p, ri, k)
			if !ok2 {
				continue // no peer could serve it this pass
			}
			if ver < target {
				// The peer is fresher than its behind-marking but older than
				// the quorum-acked version we recorded; write what we know.
				ver = target
			}
			if err := g.callPut(p, ri, k, ver); err != nil {
				continue // stays behind; retried next pass
			}
			transferred++
			g.catchupKeys++
			progress = true
		}
		if !progress {
			break
		}
	}
	return transferred
}

// readFromPeer reads key's current version from the best live peer of ri
// that is not itself behind on the key.
func (g *Group) readFromPeer(p *sim.Proc, ri int, key uint64) (uint64, bool) {
	var buf [4]int // enough for the usual group, and stays on the stack
	for _, pi := range g.readCandidates(buf[:0], key) {
		if pi == ri {
			continue
		}
		if !g.reps[pi].br.Allow(p.Now()) {
			continue
		}
		ver, found, err := g.callGet(p, pi, key)
		if err == nil && found {
			return ver, true
		}
	}
	return 0, false
}
