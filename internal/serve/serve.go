// Package serve is the sharded multi-tenant serving layer above the
// simulated storage stack: the front end ROADMAP item 1 asks for. One
// gateway domain routes tenant requests over a consistent-hash ring to N
// shard replica groups — each group R durable document stores on their own
// devices in their own sim.Domains, written at quorum W and read with
// hedging (see Group). The gateway adds the things a real serving box
// adds — admission control (bounded queues, typed shedding), a host-side
// read cache (TinyLFU admission, negative-lookup bloom filters),
// per-tenant QoS (token buckets, tail-latency accounting), and a failure-
// handling plane (deadlines, bounded retries, circuit breakers, graceful
// degradation below quorum) — while the whole tower stays deterministic:
// identical seeds produce byte-identical per-tenant reports and iotrace
// digests at any cluster worker count, including under fault injection.
//
// Crash semantics survive the layer. An acknowledged Put means the shard's
// group-commit fdatasync completed; whether that ack survives a power cut
// mid-burst is decided by the device, which is the paper's claim — DuraSSD
// shards keep every acked write in the fast (no-barrier) configuration,
// volatile-cache shards do not. Package crashpoint's serving crash rig
// audits exactly this: it power-fails replicas under a write burst through
// this layer and reads every acked key back with Store.CrashRead.
package serve

import (
	"errors"
	"time"

	"durassd/internal/sim"
)

// Config tunes the gateway.
type Config struct {
	// Concurrency is the per-shard in-flight operation limit (the size of
	// each shard's dispatch window).
	Concurrency int
	// QueueDepth bounds each shard's admission queue: a request arriving
	// with the window full and QueueDepth waiters ahead of it is shed with
	// ErrOverloaded instead of queuing unboundedly.
	QueueDepth int
	// CacheSize is the gateway read cache capacity in entries.
	CacheSize int
}

// Gateway CPU costs: the host-side work of answering from the cache or
// rejecting via the bloom filter, and the routing/dispatch overhead paid
// by every request that goes to a shard.
const (
	cacheHitCPU = 2 * time.Microsecond
	dispatchCPU = 1 * time.Microsecond
)

// LinkLatency is the gateway<->replica link latency of the serving
// scenario and of crashpoint's serving crash rig.
const LinkLatency = 100 * time.Microsecond

// Server is the gateway: it lives in one cluster domain (the front) and
// ships storage operations to shard domains with Domain.Call. All methods
// taking a *sim.Proc must run on the front domain's engine; the gateway's
// state (cache, ring, accounting) is confined to that domain, so it needs
// no locks and evolves in deterministic virtual-time order.
type Server struct {
	front  *sim.Domain
	ring   *Ring
	groups []*Group
	neg    []*Bloom        // per-shard negative-lookup filter
	admit  []*sim.Resource // per-shard dispatch windows (front domain)
	cache  *Cache
	cfg    Config

	shedByShard []int64 // requests shed at each shard
	staleReads  int64   // cache hits served while the owning group was below quorum
}

// NewReplicated builds a gateway whose shard i is a replica group over
// storesByShard[i] (every group the same size R, written at a majority
// quorum W).
// Replica 0 of each group holds the shard's key space; its peers must be
// built over the identical keys.
func NewReplicated(front *sim.Domain, storesByShard [][]*Store, cfg Config) (*Server, error) {
	if len(storesByShard) == 0 {
		return nil, errors.New("serve: need at least one shard store")
	}
	if cfg.CacheSize < 1 {
		return nil, errors.New("serve: CacheSize must be positive")
	}
	s := &Server{
		front: front,
		ring:  NewRing(len(storesByShard)),
		neg:   make([]*Bloom, len(storesByShard)),
		admit: make([]*sim.Resource, len(storesByShard)),
		cache: NewCache(cfg.CacheSize),
		cfg:   cfg,

		shedByShard: make([]int64, len(storesByShard)),
	}
	for i, reps := range storesByShard {
		g, err := NewGroup(i, front, reps)
		if err != nil {
			return nil, err
		}
		s.groups = append(s.groups, g)
		s.admit[i] = sim.NewResource(front.Engine(), cfg.Concurrency)
	}
	return s, nil
}

// BuildFilters (re)builds the per-shard negative-lookup filters from each
// shard's full key space, after NewReplicated. The read path relies only on
// a present key never being reported absent.
func (s *Server) BuildFilters(keysByShard [][]uint64) {
	for i := range s.neg {
		b := NewBloom(len(keysByShard[i]))
		for _, k := range keysByShard[i] {
			b.Add(k)
		}
		s.neg[i] = b
	}
}

// PartitionKeys splits a key set by ring ownership: the slice at index i
// is shard i's key space, each in input order. Build the shard stores from
// this partition so routing and placement agree.
func PartitionKeys(ring *Ring, keys []uint64) [][]uint64 {
	parts := make([][]uint64, ring.Shards())
	for _, k := range keys {
		sh := ring.Lookup(k)
		parts[sh] = append(parts[sh], k)
	}
	return parts
}

// Cache returns the gateway read cache.
func (s *Server) Cache() *Cache { return s.cache }

// Group returns shard i's replica group.
func (s *Server) Group(i int) *Group { return s.groups[i] }

// RobustnessCounters aggregates the replication layer's tallies across all
// shard groups — the failure-handling story in numbers.
type RobustnessCounters struct {
	Hedges       int64 // hedged second reads launched
	Deadlines    int64 // replica RPCs that blew their deadline
	Retries      int64 // group-level retried attempts (with backoff)
	BreakerOpens int64 // closed->open breaker transitions
	Unavailable  int64 // operations shed below quorum / with no readable replica
	CatchupKeys  int64 // keys delta-transferred to rejoining replicas
	StaleReads   int64 // cache hits served while the owning group was degraded
}

// Robustness sums the replication-layer counters over the server's groups.
func (s *Server) Robustness() RobustnessCounters {
	var rc RobustnessCounters
	for _, g := range s.groups {
		h, d, r, u, c := g.Counters()
		rc.Hedges += h
		rc.Deadlines += d
		rc.Retries += r
		rc.Unavailable += u
		rc.CatchupKeys += c
		rc.BreakerOpens += g.BreakerOpens()
	}
	rc.StaleReads = s.staleReads
	return rc
}

// ShedCount returns the number of requests shed at shard i.
func (s *Server) ShedCount(i int) int64 { return s.shedByShard[i] }

// throttle charges the tenant's token bucket and sleeps out any
// non-conformance. The bucket runs on virtual time, so pacing is exact and
// deterministic.
func (s *Server) throttle(p *sim.Proc, t *TenantAccount) {
	if wait := t.Bucket.Take(p.Now()); wait > 0 {
		t.Throttled++
		t.ThrottleT += wait
		p.Sleep(wait)
	}
}

// admitShard claims a slot in shard sh's dispatch window, queuing behind
// at most QueueDepth waiters. It reports false — the request is shed —
// when the queue is already full; the caller returns ErrOverloaded.
func (s *Server) admitShard(p *sim.Proc, sh int, t *TenantAccount) bool {
	r := s.admit[sh]
	if r.InUse() >= r.Capacity() && r.QueueLen() >= s.cfg.QueueDepth {
		t.Shed++
		s.shedByShard[sh]++
		return false
	}
	r.Acquire(p, 1)
	return true
}

// Get serves a read for the tenant: token bucket, then cache, then the
// shard's bloom filter, then (on a miss) an admission-controlled shard
// round trip. The end-to-end latency — including throttle and queueing —
// lands in the tenant's read histogram; that is the p99 the report shows.
//
//simlint:hotpath
func (s *Server) Get(p *sim.Proc, t *TenantAccount, key uint64) (uint64, error) {
	start := p.Now()
	s.throttle(p, t)
	sh := s.ring.Lookup(key)
	g := s.groups[sh]
	if v, ok := s.cache.Get(key); ok {
		p.Sleep(cacheHitCPU)
		t.CacheHits++
		if g.BelowQuorum() {
			// Degraded-mode fallback: the cache may be the only copy we can
			// still answer from, but with the group below quorum a fresher
			// version could exist that we cannot see. Serve it — availability
			// over consistency for reads — and flag it in the accounting.
			t.StaleReads++
			s.staleReads++
		}
		t.Ops++
		t.Reads.Record(p.Now() - start)
		return v, nil
	}
	if !s.neg[sh].Contains(key) {
		p.Sleep(cacheHitCPU)
		t.BloomSkip++
		t.Ops++
		t.Reads.Record(p.Now() - start)
		return 0, ErrNotFound
	}
	if !s.admitShard(p, sh, t) {
		return 0, ErrOverloaded
	}
	p.Sleep(dispatchCPU)
	v, found, err := g.Get(p, key)
	s.admit[sh].Release(1)
	if err != nil {
		if errors.Is(err, ErrShardUnavailable) {
			t.Unavailable++
		}
		return 0, err
	}
	if !found {
		// Bloom false positive: the shard answered definitively.
		t.Ops++
		t.Reads.Record(p.Now() - start)
		return 0, ErrNotFound
	}
	s.cache.Admit(key, v)
	t.Ops++
	t.Reads.Record(p.Now() - start)
	return v, nil
}

// Put serves a durable write for the tenant and returns the acknowledged
// version. A nil error is the serving layer's commit ack: the shard wrote
// the page image and its covering group-commit fdatasync completed.
//
//simlint:hotpath
func (s *Server) Put(p *sim.Proc, t *TenantAccount, key uint64) (uint64, error) {
	start := p.Now()
	s.throttle(p, t)
	sh := s.ring.Lookup(key)
	if !s.admitShard(p, sh, t) {
		return 0, ErrOverloaded
	}
	p.Sleep(dispatchCPU)
	v, err := s.groups[sh].Put(p, key)
	s.admit[sh].Release(1)
	if err != nil {
		if errors.Is(err, ErrShardUnavailable) {
			t.Unavailable++
		}
		return 0, err
	}
	s.cache.Update(key, v)
	t.Ops++
	t.Writes.Record(p.Now() - start)
	return v, nil
}
