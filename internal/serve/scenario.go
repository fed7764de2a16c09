package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/stats"
)

// The mixed-tenant serving scenario: three database tenants with the
// traffic shapes of the repo's workload suites — YCSB-A (50/50 read/update,
// zipfian), LinkBench (read-heavy social graph, zipfian, a slice of reads
// for absent keys), and TPC-C (write-heavy order entry, uniform, rate-
// capped) — sharing one sharded serving box. It is the serving-layer
// analogue of the paper's Tables 4/5: concurrent clients, one storage
// stack, throughput and tail latency per tenant.

// Client-side overload retry policy: a shed request is retried up to
// clientRetries times, sleeping clientRetryBase<<attempt plus uniform
// seeded jitter in [0, base<<attempt) between attempts.
const (
	clientRetries   = 3
	clientRetryBase = 100 * time.Microsecond
)

// TenantSpec shapes one tenant's traffic.
type TenantSpec struct {
	Name     string
	Ops      int   // operations across all threads
	Threads  int   // client processes
	WritePct int   // percentage of operations that are Puts
	Zipf     bool  // zipfian key popularity (vs uniform)
	MissPct  int   // percentage of reads that target absent keys
	Rate     int   // token-bucket ops/sec (the tenant's QoS contract)
	Burst    int   // token-bucket burst
	Keys     int   // tenant key-space size
	Seed     int64 // offset into the scenario seed
}

// ScenarioConfig configures one mixed-tenant run.
type ScenarioConfig struct {
	Shards   int // engine shard groups
	Replicas int // replicas per shard group (default 1), written at a majority quorum
	Workers  int // cluster worker threads (at least one runs)
	Seed     int64
	Tenants  []TenantSpec // default: DefaultTenants()
	Chaos    *ChaosSpec   // optional deterministic fault injection
}

func (c *ScenarioConfig) defaults() {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Tenants == nil {
		c.Tenants = DefaultTenants()
	}
}

// DefaultTenants returns the canonical three-tenant mix.
func DefaultTenants() []TenantSpec {
	return []TenantSpec{
		{Name: "ycsb-a", Ops: 3000, Threads: 4, WritePct: 50, Zipf: true,
			Rate: 100_000, Burst: 64, Keys: 2000, Seed: 1},
		{Name: "linkbench", Ops: 3000, Threads: 4, WritePct: 25, Zipf: true,
			MissPct: 10, Rate: 100_000, Burst: 64, Keys: 2000, Seed: 2},
		{Name: "tpcc", Ops: 1500, Threads: 2, WritePct: 60, Zipf: false,
			Rate: 2000, Burst: 16, Keys: 1000, Seed: 3},
	}
}

// TenantResult is one tenant's slice of the report.
type TenantResult struct {
	Name        string
	Ops         int64 // operations answered (including definitive not-founds)
	Shed        int64 // rejected with ErrOverloaded
	Retried     int64 // client retries after ErrOverloaded (backoff slept)
	Throttled   int64 // operations delayed by the token bucket
	ThrottleT   time.Duration
	CacheHits   int64
	BloomSkips  int64
	StaleReads  int64 // cache hits served while the owning group was degraded
	Unavailable int64 // operations refused with ErrShardUnavailable
	ReadP50     time.Duration
	ReadP99     time.Duration
	WriteP50    time.Duration
	WriteP99    time.Duration
}

// ScenarioResult is the deterministic outcome of one run: everything in it
// is a pure function of the configuration, so two runs with the same seed
// render byte-identical reports at any worker count.
type ScenarioResult struct {
	Config      ScenarioConfig
	Tenants     []TenantResult // in spec order, then any chaos noise accounts
	ShedByShard []int64
	CacheHits   int64
	CacheRatio  float64
	Robust      RobustnessCounters // replication/failure-handling tallies
	Digest      string             // merged iotrace event digest across all shards
	Events      uint64             // engine events processed across the cluster
	Elapsed     time.Duration
}

// TenantKey builds tenant t's i-th key: disjoint per-tenant key spaces.
// The serving scenario and crashpoint's serving crash rig share the layout,
// and their digests pin it.
func TenantKey(t, i int) uint64 { return uint64(t+1)<<32 | uint64(i) }

// RunScenario builds the serving box on a fresh cluster and drives the
// tenant mix to completion.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	cfg.defaults()
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("serve: Shards must be positive")
	}
	domains := 1 + cfg.Shards*cfg.Replicas
	cluster := sim.NewCluster(domains, LinkLatency, cfg.Workers)
	defer cluster.Close()
	front := cluster.Domain(0)

	// Key layout: tenant-prefixed spaces partitioned over the ring.
	ring := NewRing(cfg.Shards)
	var keys []uint64
	for t, ts := range cfg.Tenants {
		for i := 0; i < ts.Keys; i++ {
			keys = append(keys, TenantKey(t, i))
		}
	}
	parts := PartitionKeys(ring, keys)

	// Shard group i's replica r lives in domain 1 + i*Replicas + r, each on
	// its own DuraSSD. Every replica of a group holds the group's full key
	// space.
	rec := iotrace.NewShardRecorder(domains)
	storesByShard := make([][]*Store, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		for r := 0; r < cfg.Replicas; r++ {
			dom := cluster.Domain(1 + i*cfg.Replicas + r)
			dev, err := ssd.New(dom.Engine(), ssd.DuraSSD(16))
			if err != nil {
				return nil, err
			}
			// The paper's fast configuration: no barriers, the durable device
			// cache carries the ack. Timing mode — the crash campaigns cover
			// the real-bytes audit.
			st, err := OpenStore(dom, dev, parts[i], StoreConfig{Barrier: false})
			if err != nil {
				return nil, err
			}
			storesByShard[i] = append(storesByShard[i], st)
			rec.Attach(1+i*cfg.Replicas+r, dev.Registry())
		}
	}
	// Deliberately shallow per-shard admission: the tenant mix should
	// overload occasionally so shedding and queueing are exercised, not
	// just representable.
	srv, err := NewReplicated(front, storesByShard, Config{Concurrency: 2, QueueDepth: 4, CacheSize: 512})
	if err != nil {
		return nil, err
	}
	srv.BuildFilters(parts)

	// Fault injection: every schedule entry lands on a specific domain's
	// engine at a fixed virtual instant, so chaos is as deterministic as the
	// traffic it disrupts.
	noise := installChaos(cfg.Chaos, &cfg, front, srv, storesByShard)

	// Tenant clients. Each thread owns a seeded generator, so the issued
	// op stream is a pure function of (scenario seed, tenant, thread).
	accounts := make([]*TenantAccount, len(cfg.Tenants))
	tenantErr := make([]error, len(cfg.Tenants))
	for t, ts := range cfg.Tenants {
		acct := NewTenantAccount(ts.Name, ts.Rate, ts.Burst)
		accounts[t] = acct
		perThread := ts.Ops / ts.Threads
		for th := 0; th < ts.Threads; th++ {
			tn, thn, spec := t, th, ts
			rng := rand.New(rand.NewSource(cfg.Seed + ts.Seed*1_000_003 + int64(th)*22_695_477))
			var zipf *rand.Zipf
			if spec.Zipf {
				zipf = rand.NewZipf(rng, 1.01, 20, uint64(spec.Keys-1))
			}
			front.Go(fmt.Sprintf("%s-%d", spec.Name, thn), func(p *sim.Proc) {
				for i := 0; i < perThread; i++ {
					var idx int
					if zipf != nil {
						idx = int(zipf.Uint64())
					} else {
						idx = rng.Intn(spec.Keys)
					}
					write := rng.Intn(100) < spec.WritePct
					key := TenantKey(tn, idx)
					if !write && spec.MissPct > 0 && rng.Intn(100) < spec.MissPct {
						key = TenantKey(tn, spec.Keys+idx) // absent key
					}
					// Overload is transient by contract (ErrOverloaded means
					// "the queue was full at that instant"), so a shed request
					// is retried a bounded number of times with seeded-jitter
					// exponential backoff before the client gives up on it.
					var err error
					for a := 0; ; a++ {
						if write {
							_, err = srv.Put(p, acct, key)
						} else {
							_, err = srv.Get(p, acct, key)
						}
						if a >= clientRetries || !errors.Is(err, ErrOverloaded) {
							break
						}
						acct.Retried++
						back := clientRetryBase << uint(a)
						back += time.Duration(rng.Int63n(int64(back)))
						p.Sleep(back)
					}
					switch {
					case err == nil, errors.Is(err, ErrNotFound),
						errors.Is(err, ErrOverloaded), errors.Is(err, ErrShardUnavailable):
						// Answered, definitively absent, shed after retries, or
						// refused by a degraded group: all are legitimate
						// serving outcomes, already accounted.
					default:
						if tenantErr[tn] == nil {
							tenantErr[tn] = fmt.Errorf("serve: tenant %s thread %d: %w", spec.Name, thn, err)
						}
						return
					}
				}
			})
		}
	}
	cluster.Run()
	for _, reps := range storesByShard {
		for _, st := range reps {
			st.Device().Registry().SetEventFn(nil)
		}
	}
	for _, err := range tenantErr {
		if err != nil {
			return nil, err
		}
	}

	res := &ScenarioResult{Config: cfg, Events: cluster.Events(), Digest: rec.Digest()}
	for i := 0; i < cfg.Shards; i++ {
		res.ShedByShard = append(res.ShedByShard, srv.ShedCount(i))
	}
	hits, misses, _, _, _ := srv.Cache().Counters()
	res.CacheHits = hits
	if hits+misses > 0 {
		res.CacheRatio = float64(hits) / float64(hits+misses)
	}
	res.Robust = srv.Robustness()
	var last time.Duration
	for i := 0; i < domains; i++ {
		if now := cluster.Domain(i).Now(); now > last {
			last = now
		}
	}
	res.Elapsed = last
	for _, acct := range append(accounts, noise...) {
		res.Tenants = append(res.Tenants, TenantResult{
			Name:        acct.Name,
			Ops:         acct.Ops,
			Shed:        acct.Shed,
			Retried:     acct.Retried,
			Throttled:   acct.Throttled,
			ThrottleT:   acct.ThrottleT,
			CacheHits:   acct.CacheHits,
			BloomSkips:  acct.BloomSkip,
			StaleReads:  acct.StaleReads,
			Unavailable: acct.Unavailable,
			ReadP50:     acct.Reads.Percentile(50),
			ReadP99:     acct.Reads.Percentile(99),
			WriteP50:    acct.Writes.Percentile(50),
			WriteP99:    acct.Writes.Percentile(99),
		})
	}
	return res, nil
}

// Table renders the per-tenant report.
func (r *ScenarioResult) Table() *stats.Table {
	// The title deliberately omits the worker count: the rendered report is
	// the byte string the determinism sweeps compare across worker counts.
	tbl := stats.NewTable(
		fmt.Sprintf("Mixed-tenant serving: %d shards, seed %d",
			r.Config.Shards, r.Config.Seed),
		"Tenant", "Ops", "Shed", "Retried", "Throttled", "CacheHit", "BloomSkip",
		"ReadP50", "ReadP99", "WriteP50", "WriteP99")
	for _, t := range r.Tenants {
		tbl.AddRow(t.Name, t.Ops, t.Shed, t.Retried, t.Throttled, t.CacheHits, t.BloomSkips,
			t.ReadP50, t.ReadP99, t.WriteP50, t.WriteP99)
	}
	tbl.AddComment("shed by shard: %v; cache hit ratio %.3f; virtual elapsed %v",
		r.ShedByShard, r.CacheRatio, r.Elapsed)
	if r.Config.Replicas > 1 || r.Config.Chaos != nil {
		rb := r.Robust
		tbl.AddComment("replication R=%d: hedges %d, deadlines %d, retries %d, breaker opens %d, unavailable %d, catchup keys %d, stale reads %d",
			r.Config.Replicas, rb.Hedges, rb.Deadlines, rb.Retries, rb.BreakerOpens,
			rb.Unavailable, rb.CatchupKeys, rb.StaleReads)
	}
	tbl.AddComment("iotrace digest %s (identical at any worker count for this seed)", r.Digest[:16])
	return tbl
}

// Render returns the canonical textual report: the byte string the
// determinism sweeps compare across worker counts and GOMAXPROCS values.
func (r *ScenarioResult) Render() string { return r.Table().String() }
