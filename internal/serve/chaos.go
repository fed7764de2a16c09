package serve

import (
	"fmt"
	"math/rand"
	"time"

	"durassd/internal/sim"
	"durassd/internal/storage"
)

// The deterministic fault-injection plane. A ChaosSpec is a seeded schedule
// of faults — replica brownouts (latency inflation), replica power failures
// with mid-traffic reboot and peer catch-up, and sustained overload bursts —
// each pinned to a virtual instant on a specific domain's engine. Because
// the faults are ordinary simulation events, a chaos run is exactly as
// reproducible as a clean one: byte-identical reports and iotrace digests
// at any worker count, which is what makes failure-handling behavior
// testable at all.

// BrownoutFault inflates one replica's service time by Slowdown during
// [At, At+Duration): the gray-failure mode where a node is alive but slow,
// the case hedged reads and deadlines exist for.
type BrownoutFault struct {
	Shard    int
	Replica  int
	At       time.Duration
	Duration time.Duration
	Slowdown time.Duration
}

// CrashFault power-fails one replica's device at At and reboots it after
// Down. On a successful reboot the replica rejoins its group and catches up
// the writes it missed from a live peer (Group.CatchUp).
type CrashFault struct {
	Shard   int
	Replica int
	At      time.Duration
	Down    time.Duration
}

// OverloadFault floods the box starting at At: Clients noise writers, each
// issuing Ops unthrottled writes into tenant Tenant's key space. Their
// traffic lands in a synthetic "chaos-noise" account so the report keeps
// real tenants and noise separate.
type OverloadFault struct {
	At      time.Duration
	Clients int
	Ops     int
	Tenant  int
}

// ChaosSpec is the full fault schedule of one run.
type ChaosSpec struct {
	Brownouts []BrownoutFault
	Crashes   []CrashFault
	Overloads []OverloadFault
}

// DefaultChaos returns the canonical three-fault schedule used by
// `servebench -chaos` and the chaos tests of this package: an early
// brownout on one replica, a mid-traffic power-fail-and-reboot on another,
// and an overload burst in between. Instants assume the ChaosTenants
// traffic shape (~150ms of virtual time).
func DefaultChaos() *ChaosSpec {
	return &ChaosSpec{
		Brownouts: []BrownoutFault{
			{Shard: 0, Replica: 1, At: 2 * time.Millisecond, Duration: 10 * time.Millisecond, Slowdown: 600 * time.Microsecond},
		},
		Crashes: []CrashFault{
			// DuraSSD reboot recovery is ~100ms (capacitor recharge), so a
			// 5ms outage rejoins around t=110ms — still mid-traffic, so the
			// catch-up transfer runs under live load.
			{Shard: 1, Replica: 2, At: 5 * time.Millisecond, Down: 5 * time.Millisecond},
		},
		Overloads: []OverloadFault{
			{At: 20 * time.Millisecond, Clients: 6, Ops: 150, Tenant: 0},
		},
	}
}

// ChaosTenants returns the tenant mix for chaos runs: the canonical three
// tenants, rate-capped low enough that the run spans ~150ms of virtual time
// — long enough for a power-failed DuraSSD replica to recharge, rejoin and
// catch up while traffic is still flowing.
func ChaosTenants() []TenantSpec {
	return []TenantSpec{
		{Name: "ycsb-a", Ops: 2000, Threads: 4, WritePct: 50, Zipf: true,
			Rate: 15_000, Burst: 32, Keys: 1500, Seed: 1},
		{Name: "linkbench", Ops: 2000, Threads: 4, WritePct: 25, Zipf: true,
			MissPct: 10, Rate: 15_000, Burst: 32, Keys: 1500, Seed: 2},
		{Name: "tpcc", Ops: 1000, Threads: 2, WritePct: 60, Zipf: false,
			Rate: 7_000, Burst: 16, Keys: 800, Seed: 3},
	}
}

// ChaosScenario returns the canonical chaos configuration: 2 shard groups,
// R=3 replicas at write quorum W=2, the ChaosTenants mix, and the
// DefaultChaos fault schedule.
func ChaosScenario(workers int, seed int64) ScenarioConfig {
	return ScenarioConfig{
		Shards:   2,
		Replicas: 3,
		Workers:  workers,
		Seed:     seed,
		Tenants:  ChaosTenants(),
		Chaos:    DefaultChaos(),
	}
}

// installChaos registers spec's fault schedule on the freshly built box and
// returns the synthetic noise accounts (empty when spec is nil). Each fault
// is validated against the topology so a bad spec fails loudly at zero
// virtual time rather than silently never firing.
func installChaos(spec *ChaosSpec, cfg *ScenarioConfig, front *sim.Domain, srv *Server, storesByShard [][]*Store) []*TenantAccount {
	if spec == nil {
		return nil
	}
	for _, b := range spec.Brownouts {
		st := storesByShard[b.Shard][b.Replica]
		eng := st.Domain().Engine()
		slow, at := b.Slowdown, b.At
		eng.Schedule(at, func() { st.SetSlowdown(slow) })
		eng.Schedule(at+b.Duration, func() { st.SetSlowdown(0) })
	}
	for _, c := range spec.Crashes {
		st := storesByShard[c.Shard][c.Replica]
		dom := st.Domain()
		pc := st.Device().(storage.PowerCycler)
		g := srv.Group(c.Shard)
		ri := c.Replica
		dom.Engine().Schedule(c.At, pc.PowerFail)
		dom.Engine().Schedule(c.At+c.Down, func() {
			dom.Go(fmt.Sprintf("serve/chaos-reboot-%d-%d", c.Shard, ri), func(q *sim.Proc) {
				err := pc.Reboot(q)
				dom.Send(front, func() { g.ReplicaRebooted(ri, err) })
			})
		})
	}
	var noise []*TenantAccount
	for oi, o := range spec.Overloads {
		o := o
		ts := cfg.Tenants[o.Tenant]
		// Effectively unthrottled: the burst exists to exercise shedding.
		acct := NewTenantAccount(fmt.Sprintf("chaos-noise-%d", oi), 10_000_000, 1024)
		noise = append(noise, acct)
		for ci := 0; ci < o.Clients; ci++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(oi)*104_729 + int64(ci)*7919 + 0x6e6f6973))
			tn := o.Tenant
			front.Engine().Schedule(o.At, func() {
				front.Go(fmt.Sprintf("serve/chaos-noise-%d-%d", oi, ci), func(p *sim.Proc) {
					for i := 0; i < o.Ops; i++ {
						// Noise outcomes (shed, unavailable) are the point;
						// they land in the account, not in errors.
						_, _ = srv.Put(p, acct, TenantKey(tn, rng.Intn(ts.Keys)))
					}
				})
			})
		}
	}
	return noise
}
