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
type Group struct {
	id    int
	front *sim.Domain
	reps  []*replica
	w     int
	cfg   GroupConfig
	rng   *sim.Rand // backoff jitter (front domain only)

	// Per-key write serialization: version assignment and quorum fan-out
	// for one key happen under its stripe, so versions are monotonic.
	stripes []*sim.Resource
	vers    map[uint64]uint64 // group version authority

	calls   []*rpcCall // settled-and-completed RPC records, for reuse
	weights []uint64   // readCandidates scratch: weights of the ranked replicas

	hedges       int64
	deadlines    int64
	retries      int64
	unavailable  int64
	catchupKeys  int64
	staleServed  int64
	rebuildScans int64
}

// replica is the front-domain view of one group member.
type replica struct {
	st   *Store
	dom  *sim.Domain
	br   *Breaker
	salt uint64
	// behind maps key -> highest version this replica is known (or assumed)
	// to be missing. Entries are added when a write RPC to the replica
	// skips, fails or times out, and removed when a success at or above the
	// version proves the replica caught up.
	behind     map[uint64]uint64
	catchingUp bool
}

// GroupConfig tunes the replication and failure-handling layer.
type GroupConfig struct {
	// Quorum is the write quorum W (default: majority of the replicas).
	Quorum int
	// CallTimeout is the per-replica RPC deadline (default 8ms).
	CallTimeout time.Duration
	// Retries bounds retried attempts after the first (default 2).
	Retries int
	// RetryBase is the backoff base; attempt k sleeps base<<k plus jitter
	// uniform in [0, base<<k) (default 200µs).
	RetryBase time.Duration
	// HedgeAfter is the hedged-read threshold: a read outstanding this long
	// fires a second read at the next-ranked replica (default 1.2ms).
	HedgeAfter time.Duration
	// BreakerThreshold and BreakerCooldown tune the per-replica circuit
	// breakers (defaults 4 consecutive failures, 15ms cooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func (c *GroupConfig) defaults(replicas int) {
	if c.Quorum <= 0 {
		c.Quorum = replicas/2 + 1
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 8 * time.Millisecond
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 200 * time.Microsecond
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 1200 * time.Microsecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 4
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 15 * time.Millisecond
	}
}

const groupStripes = 64

// NewGroup builds a replica group over the given stores (each already on
// its own domain) fronted from the front domain, which it links to every
// replica's domain.
func NewGroup(id int, front *sim.Domain, stores []*Store, cfg GroupConfig) (*Group, error) {
	if len(stores) == 0 {
		return nil, fmt.Errorf("serve: group %d needs at least one replica", id)
	}
	cfg.defaults(len(stores))
	if cfg.Quorum > len(stores) {
		return nil, fmt.Errorf("serve: group %d quorum %d exceeds %d replicas", id, cfg.Quorum, len(stores))
	}
	g := &Group{
		id:      id,
		front:   front,
		w:       cfg.Quorum,
		cfg:     cfg,
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
			br:     NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
			salt:   replicaSalt(i),
			behind: make(map[uint64]uint64),
		})
	}
	return g, nil
}

// Replicas returns the replication factor R.
func (g *Group) Replicas() int { return len(g.reps) }

// Quorum returns the write quorum W.
func (g *Group) Quorum() int { return g.w }

// Replica returns replica ri's store.
func (g *Group) Replica(ri int) *Store { return g.reps[ri].st }

// Breaker returns replica ri's circuit breaker (health inspection).
func (g *Group) Breaker(ri int) *Breaker { return g.reps[ri].br }

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

// RendezvousOrder ranks replicas 0..n-1 for a read of key by rendezvous
// (highest-random-weight) hashing over the replicas alive reports as up.
// The defining property — the reason replica death never reshuffles healthy
// assignments — is minimal movement: excluding one replica changes the top
// choice only for keys that preferred the excluded replica.
func RendezvousOrder(key uint64, n int, alive func(int) bool) []int {
	order, _ := rendezvousRank(make([]int, 0, n), nil, key, n, alive)
	return order
}

// rendezvousRank fills order with the replicas among 0..n-1 that alive
// admits (nil admits all), heaviest first and the lower index first among
// equal weights. weights is scratch for the weights of what is in order;
// both slices are overwritten from the start and returned for reuse.
// Replica groups are a handful wide, so this is an insertion sort: no
// closure, no reflection, nothing allocated once the slices have their
// capacity.
func rendezvousRank(order []int, weights []uint64, key uint64, n int, alive func(int) bool) ([]int, []uint64) {
	order, weights = order[:0], weights[:0]
	h := mix64(key)
	for ri := 0; ri < n; ri++ {
		if alive != nil && !alive(ri) {
			continue
		}
		w := mix64(h ^ replicaSalt(ri))
		order, weights = append(order, ri), append(weights, w)
		i := len(order) - 1
		for ; i > 0 && weights[i-1] < w; i-- {
			order[i], weights[i] = order[i-1], weights[i-1]
		}
		order[i], weights[i] = ri, w
	}
	return order, weights
}

// readCandidates fills order (owned by the caller, who keeps it across
// parks — which is why it is not group scratch) with the group's replicas
// ranked for a read of key, excluding replicas known to be behind on that
// key: a behind replica would serve a stale version, and consistency wins
// over one more read target.
func (g *Group) readCandidates(order []int, key uint64) []int {
	order, g.weights = rendezvousRank(order, g.weights, key, len(g.reps), func(ri int) bool {
		_, behind := g.reps[ri].behind[key]
		return !behind
	})
	return order
}

// backoff returns the seeded-jitter exponential backoff for retry attempt k.
func (g *Group) backoff(attempt int) time.Duration {
	base := g.cfg.RetryBase << uint(attempt)
	return base + time.Duration(g.rng.Int63n(int64(base)))
}

// rpcCall is the front-domain record of one replica RPC in flight: the
// deadline timer and the real completion race to settle it, and whichever
// loses only updates replica health. Records are recycled through
// Group.calls; one goes back when its completion arrives, which is after
// the deadline if that fired, so nothing can still refer to it.
type rpcCall struct {
	g       *Group
	tm      sim.Timer // the deadline; fires expire
	settled bool
	ri      int
	key     uint64
	ver     uint64 // puts only
	// Exactly one is set: which of them says whether this is a put or a get.
	onPut func(err error)
	onGet func(ver uint64, found bool, err error)
}

// call takes an RPC record for replica ri from the free list, or makes one,
// and starts its deadline.
func (g *Group) call(ri int, key, ver uint64) *rpcCall {
	var c *rpcCall
	if n := len(g.calls); n > 0 {
		c = g.calls[n-1]
		g.calls = g.calls[:n-1]
	} else {
		c = &rpcCall{g: g}
		g.front.Engine().InitTimer(&c.tm, c.expire)
	}
	c.settled, c.ri, c.key, c.ver = false, ri, key, ver
	c.tm.Reset(g.cfg.CallTimeout)
	return c
}

// release returns a completed record to the free list.
func (c *rpcCall) release() {
	c.onPut, c.onGet = nil, nil
	c.g.calls = append(c.g.calls, c)
}

// expire is the deadline firing before the completion arrived.
func (c *rpcCall) expire() {
	g := c.g
	c.settled = true
	g.deadlines++
	if c.onPut != nil {
		g.finishPut(c.ri, c.key, c.ver, ErrDeadlineExceeded)
		c.onPut(ErrDeadlineExceeded)
		return
	}
	g.reps[c.ri].br.Failure(g.front.Now())
	c.onGet(0, false, ErrDeadlineExceeded)
}

// putDone is a write RPC's completion arriving in the front domain.
func (c *rpcCall) putDone(err error) {
	// Late or not, the outcome counts: a late success heals or confirms.
	c.g.finishPut(c.ri, c.key, c.ver, err)
	if !c.settled {
		c.settled = true
		c.tm.Stop()
		c.onPut(err)
	}
	c.release()
}

// getDone is a read RPC's completion arriving in the front domain.
func (c *rpcCall) getDone(ver uint64, found bool, err error) {
	rep := c.g.reps[c.ri]
	if err == nil {
		rep.br.Success()
	} else {
		rep.br.Failure(c.g.front.Now())
	}
	if !c.settled {
		c.settled = true
		c.tm.Stop()
		c.onGet(ver, found, err)
	}
	c.release()
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

// putRPC ships PutVersion(key, ver) to replica ri with a deadline. onDone
// runs exactly once in the front domain: with nil on a durable ack, with
// ErrDeadlineExceeded if the deadline fires first, or with the replica's
// error. Health and behind-tracking are updated on every outcome, settled
// or late.
func (g *Group) putRPC(ri int, key, ver uint64, onDone func(err error)) {
	rep := g.reps[ri]
	st, dst, front := rep.st, rep.dom, g.front
	c := g.call(ri, key, ver)
	c.onPut = onDone
	front.Send(dst, func() {
		dst.Go("serve/rput", func(q *sim.Proc) {
			err := st.PutVersion(q, key, ver)
			dst.Send(front, func() { c.putDone(err) })
		})
	})
}

// getRPC ships a read of key to replica ri with a deadline; onDone runs
// exactly once in the front domain.
func (g *Group) getRPC(ri int, key uint64, onDone func(ver uint64, found bool, err error)) {
	rep := g.reps[ri]
	st, dst, front := rep.st, rep.dom, g.front
	c := g.call(ri, key, 0)
	c.onGet = onDone
	front.Send(dst, func() {
		dst.Go("serve/rget", func(q *sim.Proc) {
			ver, found, err := st.Get(q, key)
			dst.Send(front, func() { c.getDone(ver, found, err) })
		})
	})
}

// Put durably writes the next version of key at quorum and returns it. A
// nil error means W replicas acknowledged the version as durable — the
// group's commit ack, the thing the ReplicaLoss campaign audits. Attempts
// that miss quorum are retried with backoff (a half-applied attempt re-sends
// the same version, so retries converge); when the group cannot reach W the
// write is shed with ErrShardUnavailable.
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
		if attempt >= g.cfg.Retries {
			return 0, fmt.Errorf("serve: group %d put key %d: %w", g.id, key, err)
		}
		g.retries++
		p.Sleep(g.backoff(attempt))
	}
}

// quorumState tallies one fan-out attempt in the front domain.
type quorumState struct {
	acks, fails int
	firstErr    error
}

// putQuorum runs one fan-out attempt: launch a write RPC at every replica
// whose breaker admits it, count skipped replicas as immediate failures,
// and wait until W acks arrive or quorum becomes impossible.
func (g *Group) putQuorum(p *sim.Proc, key, ver uint64) error {
	now := p.Now()
	wake := sim.NewQueue(g.front.Engine())
	qs := &quorumState{}
	for ri := range g.reps {
		rep := g.reps[ri]
		if !rep.br.Allow(now) {
			// Skipped: the replica is presumed down and will need this write.
			if rep.behind[key] < ver {
				rep.behind[key] = ver
			}
			qs.fails++
			continue
		}
		g.putRPC(ri, key, ver, func(err error) {
			if err == nil {
				qs.acks++
			} else {
				qs.fails++
				if qs.firstErr == nil {
					qs.firstErr = err
				}
			}
			wake.WakeAll()
		})
	}
	total := len(g.reps)
	for qs.acks < g.w && qs.fails <= total-g.w {
		wake.Wait(p)
	}
	if qs.acks >= g.w {
		return nil
	}
	g.unavailable++
	if qs.firstErr != nil {
		return fmt.Errorf("%w: %d/%d acks: %w", ErrShardUnavailable, qs.acks, g.w, qs.firstErr)
	}
	return fmt.Errorf("%w: %d/%d acks, all replicas skipped", ErrShardUnavailable, qs.acks, g.w)
}

// readState tallies one read attempt in the front domain.
type readState struct {
	done     bool
	ver      uint64
	found    bool
	fails    int
	firstErr error
	buf      [4]int // backs the candidate order of the usual group
}

// Get reads key from the group: the rendezvous-preferred replica first,
// a hedged second read if the first is still outstanding after HedgeAfter,
// and sequential failover through the remaining candidates on failure.
// Exhausted attempts are retried with backoff; a group with no replica able
// to serve the key returns ErrShardUnavailable.
func (g *Group) Get(p *sim.Proc, key uint64) (uint64, bool, error) {
	for attempt := 0; ; attempt++ {
		ver, found, err := g.getOnce(p, key)
		if err == nil {
			return ver, found, nil
		}
		if attempt >= g.cfg.Retries {
			return 0, false, fmt.Errorf("serve: group %d get key %d: %w", g.id, key, err)
		}
		g.retries++
		p.Sleep(g.backoff(attempt))
	}
}

// getOnce runs one read attempt with hedging and failover.
func (g *Group) getOnce(p *sim.Proc, key uint64) (uint64, bool, error) {
	rs := &readState{}
	order := g.readCandidates(rs.buf[:0], key)
	wake := sim.NewQueue(g.front.Engine())
	next, launched := 0, 0
	launchNext := func() bool {
		for next < len(order) {
			ri := order[next]
			next++
			if !g.reps[ri].br.Allow(g.front.Now()) {
				continue
			}
			launched++
			g.getRPC(ri, key, func(ver uint64, found bool, err error) {
				if err == nil {
					if !rs.done {
						rs.done = true
						rs.ver, rs.found = ver, found
					}
				} else {
					rs.fails++
					if rs.firstErr == nil {
						rs.firstErr = err
					}
				}
				wake.WakeAll()
			})
			return true
		}
		return false
	}
	if !launchNext() {
		g.unavailable++
		return 0, false, fmt.Errorf("%w: no replica can serve the read", ErrShardUnavailable)
	}
	hedge := g.front.Engine().NewTimer(func() {
		if rs.done {
			return
		}
		if launchNext() {
			g.hedges++
		}
	})
	hedge.Reset(g.cfg.HedgeAfter)
	for !rs.done {
		if rs.fails == launched && !launchNext() {
			break // every candidate tried and failed
		}
		wake.Wait(p)
	}
	hedge.Stop()
	if rs.done {
		return rs.ver, rs.found, nil
	}
	g.unavailable++
	if rs.firstErr != nil {
		return 0, false, fmt.Errorf("%w: %w", ErrShardUnavailable, rs.firstErr)
	}
	return 0, false, fmt.Errorf("%w: no replica answered the read", ErrShardUnavailable)
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
