package crashpoint

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"durassd/internal/faults"
	"durassd/internal/iotrace"
	"durassd/internal/serve"
	"durassd/internal/sim"
	"durassd/internal/ssd"
)

// The serving crash rig, which serveSubject explores. Every serving-layer
// crash campaign is one run of runServe per point: tenants × writers Put
// through the full serving layer (gateway, ring, admission, quorum fan-out,
// group-commit stores) over Groups replica groups of R drives each, all in
// the fast no-barrier configuration, and replica CutReplica of every group
// loses power at one instant. The audit then asks what an ack through the
// gateway was worth: readable from the survivors before the victims return,
// and present on every replica after reboot, delta catch-up and
// anti-entropy.
//
// Two campaign families describe themselves declaratively and lower to it:
//
//   - MidBurst (BurstSpec) is the rig at R = 1, W = 1 with a device class
//     per group: cutting "replica 0 of every group" takes the whole box —
//     the event the paper's §5.2 study injects — and one run shows both
//     halves of the claim, acks durable on DuraSSD shards and not on the
//     volatile-cache ones.
//   - ReplicaLoss (ReplicaSpec) is the replication contract: a write acked
//     at quorum W over DuraSSD replicas survives the loss of any single
//     replica at any instant, and of a second one mid catch-up. Its R = 1
//     volatile control shows the opposite: no quorum, no durable cache,
//     acked writes vanish.

// BurstSpec describes one MidBurst crash run.
type BurstSpec struct {
	// Shards is the shard count.
	Shards int
	// Volatile lists the shard indices built on volatile-cache SSD-A
	// drives; the rest are DuraSSD.
	Volatile []int
	// Updates is the total number of Put attempts across all writers.
	Updates int
	Seed    int64
}

// Name summarizes the configuration (stable: it feeds schedule digests).
func (sp BurstSpec) Name() string {
	return fmt.Sprintf("serve midburst shards=%d volatile=%d barrier=off", sp.Shards, len(sp.Volatile))
}

// replicated lowers the burst to the spec the rig runs: three writer
// tenants of two processes each over 64 keys apiece, and every shard loses
// power at the same instant, 5ms in.
func (sp BurstSpec) replicated() ReplicaSpec {
	return ReplicaSpec{
		Groups: sp.Shards, Replicas: 1, VolatileGroups: sp.Volatile,
		Tenants: 3, Writers: 2, Updates: sp.Updates, Keys: 64,
		Seed: sp.Seed, CutAfter: 5 * time.Millisecond,
	}
}

// ReplicaSpec describes one ReplicaLoss crash run, and is the spec the rig
// takes.
type ReplicaSpec struct {
	// Groups is the number of shard replica groups.
	Groups int
	// Replicas is the replication factor R per group, written at a
	// majority quorum W.
	Replicas int
	// Volatile builds every group on volatile-cache SSD-A drives instead of
	// DuraSSD — the control configuration that loses acked writes.
	// VolatileGroups does the same for the listed groups only.
	Volatile       bool
	VolatileGroups []int
	// Tenants is the number of writer tenants, each with its own key space
	// and account (default 1); Writers the writer processes per tenant
	// (default 4).
	Tenants int
	Writers int
	// Updates is the total number of Put attempts.
	Updates int
	// Keys is the per-tenant key-space size (default 96).
	Keys int
	Seed int64
	// CutAfter is the instant the victim replica of every group loses power.
	// Zero with NoCut unset means 5ms.
	CutAfter time.Duration
	// CutReplica is the victim replica index, cut in every group.
	CutReplica int
	// CutPeerDuringCatchup power-fails the replica after the victim,
	// (CutReplica+1) % Replicas, of every group shortly after the victim's
	// catch-up starts — the recovery-under-failure arm.
	CutPeerDuringCatchup bool
}

func (sp *ReplicaSpec) defaults() {
	if sp.Tenants <= 0 {
		sp.Tenants = 1
	}
	if sp.Writers <= 0 {
		sp.Writers = 4
	}
	if sp.Keys <= 0 {
		sp.Keys = 96
	}
	if sp.CutAfter == 0 {
		sp.CutAfter = 5 * time.Millisecond
	}
}

// Name summarizes the configuration (stable: it feeds schedule digests).
func (sp ReplicaSpec) Name() string {
	sp.defaults()
	dev := "durassd"
	if sp.Volatile {
		dev = "ssda"
	}
	return fmt.Sprintf("serve replicaloss groups=%d r=%d w=%d dev=%s", sp.Groups, sp.Replicas, sp.Replicas/2+1, dev)
}

// maxLosses is how many findings a verdict keeps, as many as the engine
// rig's.
const maxLosses = 8

// ServeVerdict is the serving rig's tallies beside the faults.Verdict it
// fills with the claim under test. Lost and torn are tallied by the device
// class of the group they were found on: the Dura tallies are the claim
// (must be zero), the Volatile tallies the expected failure of a control.
type ServeVerdict struct {
	AckedCommits int // Puts acknowledged through the gateway
	DuraKeys     int // distinct acked keys audited on DuraSSD groups
	VolatileKeys int // distinct acked keys audited on volatile-cache groups
	// GroupLost counts acked keys whose acked version was not readable from
	// any still-powered replica before the victims rebooted — the
	// availability half of the quorum claim. Those replicas never lost
	// power, so it must be 0 on either device class.
	GroupLost int
	// Lost counts (replica, key) pairs below the acked version after every
	// reboot and catch-up completed — the convergence half. Torn counts page
	// images failing their checksum in either audit (a torn image found
	// after convergence is also Lost).
	DuraLost, DuraTorn         int
	VolatileLost, VolatileTorn int
	// CatchupKeys is the total keys delta-transferred to rejoining replicas;
	// TotalKeys the resident key count (catch-up must move strictly less — a
	// delta, not a rebuild).
	CatchupKeys int
	TotalKeys   int
	// BehindAfter counts keys still marked behind after all catch-up passes
	// (non-zero only when no live peer exists, i.e. at R = 1).
	BehindAfter int
	Shed        int // Puts shed by admission control (never acknowledged)
	Unavailable int // Puts refused below quorum (never acknowledged)
}

// drive is the device class of a serving group: the volatile-cache SSD-A or
// DuraSSD.
func drive(volatile bool) faults.DeviceKind {
	if volatile {
		return faults.SSDA
	}
	return faults.DuraSSD
}

// crashRead is one audited page: the on-media version, and whether the image
// parsed.
type crashRead struct {
	ver uint64
	ok  bool
}

// runServe executes the crash scenario and audits the aftermath:
// availability from the survivors, then reboot, peer catch-up, anti-entropy
// and convergence on every replica. Of the options it takes NoCut (the probe
// run) and EventFn, which observes every replica, member = group*Replicas +
// replica. The outcome's Verdict holds the claim under test: acked, what the
// quorum or the DuraSSD groups lost and tore, the first findings, a writer's
// unexpected error.
func runServe(sp ReplicaSpec, o faults.Options) (Outcome, error) {
	sp.defaults()
	if sp.Groups <= 0 || sp.Replicas <= 0 {
		return Outcome{}, fmt.Errorf("crashpoint: Groups and Replicas must be positive")
	}
	if sp.CutReplica < 0 || sp.CutReplica >= sp.Replicas {
		return Outcome{}, fmt.Errorf("crashpoint: CutReplica %d out of range for %d replicas", sp.CutReplica, sp.Replicas)
	}
	R := sp.Replicas
	volatile := make([]bool, sp.Groups)
	for g := range volatile {
		volatile[g] = sp.Volatile
	}
	for _, g := range sp.VolatileGroups {
		if g < 0 || g >= sp.Groups {
			return Outcome{}, fmt.Errorf("crashpoint: volatile group index %d out of range", g)
		}
		volatile[g] = true
	}
	v, fv := &ServeVerdict{TotalKeys: sp.Tenants * sp.Keys}, &faults.Verdict{}

	// One worker: the campaign replays need determinism of the recorded
	// schedule, not wall-clock speed (the digest sweeps cover parallelism).
	cluster := sim.NewCluster(1+sp.Groups*R, serve.LinkLatency, 1)
	// Member m = g*R + r is replica r of group g, on cluster domain 1 + m.
	devs := make([]*ssd.Device, sp.Groups*R)
	defer func() {
		cluster.Close()
		for _, dev := range devs {
			if dev != nil {
				dev.Release() // the next rig takes its memory
			}
		}
	}()
	front := cluster.Domain(0)

	ring := serve.NewRing(sp.Groups)
	keys := make([]uint64, 0, v.TotalKeys)
	for t := 0; t < sp.Tenants; t++ {
		for i := 0; i < sp.Keys; i++ {
			keys = append(keys, serve.TenantKey(t, i))
		}
	}
	parts := serve.PartitionKeys(ring, keys)

	stores := make([]*serve.Store, sp.Groups*R)
	groups := make([][]*serve.Store, sp.Groups)
	for m := range stores {
		g := m / R
		dom := cluster.Domain(1 + m)
		prof, err := faults.Profile(drive(volatile[g]))
		if err != nil {
			return Outcome{}, err
		}
		dev, err := ssd.New(dom.Engine(), prof)
		if err != nil {
			return Outcome{}, err
		}
		devs[m] = dev
		if stores[m], err = serve.OpenStore(dom, dev, parts[g], serve.StoreConfig{Barrier: false, RealBytes: true}); err != nil {
			return Outcome{}, err
		}
		if o.EventFn != nil {
			dev.Registry().SetEventFn(func(kind iotrace.EventKind, at time.Duration) {
				o.EventFn(m, kind, at)
			})
		}
		groups[g] = stores[g*R : m+1] // grows to the whole group
	}
	srv, err := serve.NewReplicated(front, groups, serve.Config{
		Concurrency: 8, QueueDepth: 64, CacheSize: 64,
	})
	if err != nil {
		return Outcome{}, err
	}
	srv.BuildFilters(parts)

	// Writers: Put random keys of their tenant's space, record the versions
	// acknowledged at quorum. An ack through the gateway is the durability
	// contract under audit. The cut takes one replica of every group, so at
	// R = 1 it takes the whole box: nothing can ack again, and a writer
	// stops at its first refusal instead of spinning through its budget.
	acked := make(map[uint64]uint64)
	perWriter := sp.Updates / (sp.Tenants * sp.Writers)
	boxCut := !o.NoCut && R == 1
	for t := 0; t < sp.Tenants; t++ {
		acct := serve.NewTenantAccount(fmt.Sprintf("tenant%d", t), 1_000_000, 64)
		for c := 0; c < sp.Writers; c++ {
			rng := sim.NewRand(sp.Seed + int64(t)*104_729 + int64(c)*7_919)
			front.Go(fmt.Sprintf("writer-%d-%d", t, c), func(p *sim.Proc) {
				for i := 0; i < perWriter; i++ {
					key := serve.TenantKey(t, rng.Intn(sp.Keys))
					ver, err := srv.Put(p, acct, key)
					switch {
					case err == nil:
						if ver > acked[key] {
							acked[key] = ver
						}
						v.AckedCommits++
					case errors.Is(err, serve.ErrOverloaded):
						v.Shed++
					case errors.Is(err, serve.ErrShardUnavailable):
						v.Unavailable++
						if boxCut && p.Now() >= sp.CutAfter {
							return
						}
					default:
						// Unexpected taxonomy escape; surface it in the verdict.
						if fv.Err == nil {
							fv.Err = fmt.Errorf("writer %d/%d: %w", t, c, err)
						}
						return
					}
				}
			})
		}
	}

	// cut power-fails replica r of every group after d; reboot brings it back
	// (firmware recovery: DuraSSD recharges and keeps its cache, SSD-A comes
	// back having lost whatever was in it).
	down := make([]bool, R)
	cut := func(r int, d time.Duration) {
		down[r] = true
		for m := r; m < len(devs); m += R {
			stores[m].Domain().Engine().Schedule(d, devs[m].PowerFail)
		}
	}
	reboot := func(r int) error {
		errs := make([]error, sp.Groups)
		for g := range errs {
			m := g*R + r
			stores[m].Domain().Go(fmt.Sprintf("reboot-%d-%d", g, r), func(p *sim.Proc) {
				errs[g] = devs[m].Reboot(p)
			})
		}
		cluster.Run()
		down[r] = false
		for g, err := range errs {
			if err != nil {
				return fmt.Errorf("group %d replica %d reboot: %w", g, r, err)
			}
		}
		return nil
	}
	// catchUp delta-transfers to every replica in [lo, hi) that is marked
	// behind, one gateway process per group.
	catchUp := func(label string, lo, hi int) {
		for g := 0; g < sp.Groups; g++ {
			front.Go(fmt.Sprintf("%s-%d", label, g), func(p *sim.Proc) {
				for r := lo; r < hi; r++ {
					if srv.Group(g).Behind(r) > 0 {
						n := srv.Group(g).CatchUp(p, r) // parks: add only once it is back
						v.CatchupKeys += n
					}
				}
			})
		}
		cluster.Run()
	}

	if !o.NoCut {
		cut(sp.CutReplica, sp.CutAfter)
	}
	cluster.Run()
	for _, dev := range devs {
		dev.Registry().SetEventFn(nil) // the schedule covers the workload only
	}

	// Partition the acked keys by owning group, in sorted key order so the
	// audit schedule never depends on map iteration.
	byGroup := make([][]uint64, sp.Groups)
	for k := range acked {
		g := ring.Lookup(k)
		byGroup[g] = append(byGroup[g], k)
	}
	for g, ks := range byGroup {
		slices.Sort(ks)
		if volatile[g] {
			v.VolatileKeys += len(ks)
		} else {
			v.DuraKeys += len(ks)
		}
	}

	// readAll is the audit read: every acked key of every group on every
	// powered replica, one process per replica; reads[m][i] is byGroup[g][i]
	// as member m holds it (nil while m is down).
	readAll := func(label string) ([][]crashRead, error) {
		reads := make([][]crashRead, len(stores))
		errs := make([]error, len(stores))
		for m, st := range stores {
			g, r := m/R, m%R
			if down[r] {
				continue
			}
			out := make([]crashRead, len(byGroup[g]))
			reads[m] = out
			st.Domain().Go(fmt.Sprintf("%s-%d-%d", label, g, r), func(p *sim.Proc) {
				for i, k := range byGroup[g] {
					ver, ok, err := st.CrashRead(p, k)
					if err != nil {
						errs[m] = fmt.Errorf("group %d replica %d audit: %w", g, r, err)
						return
					}
					out[i] = crashRead{ver, ok}
				}
			})
		}
		cluster.Run()
		return reads, errors.Join(errs...)
	}
	// found tallies one audited copy by its group's device class and keeps
	// what was wrong with it. A torn image is wrong in either audit; a copy
	// below the acked version only once the group has converged — before
	// that a live replica may lag, and the group answers for the key.
	var losses []faults.Loss
	found := func(m int, k uint64, rd crashRead, converged bool) {
		if rd.ok && (rd.ver >= acked[k] || !converged) {
			return
		}
		lost, torn := &v.DuraLost, &v.DuraTorn
		if volatile[m/R] {
			lost, torn = &v.VolatileLost, &v.VolatileTorn
		}
		if !rd.ok {
			*torn++
		}
		if converged {
			*lost++
		}
		losses = append(losses, faults.Loss{Member: m, Key: k, Acked: acked[k], Found: rd.ver, Torn: !rd.ok})
	}

	// Phase A — availability before the victims return: every acked key must
	// be readable at its acked version from some still-powered replica. Live
	// replicas were never power-cut, so a torn image here is a real bug.
	reads, err := readAll("preaudit")
	if err != nil {
		return Outcome{}, err
	}
	for g, ks := range byGroup {
		for i, k := range ks {
			best, at := uint64(0), -1
			for m := g * R; m < (g+1)*R; m++ {
				if reads[m] == nil {
					continue
				}
				rd := reads[m][i]
				found(m, k, rd, false)
				if at < 0 || rd.ver > best {
					best, at = rd.ver, m
				}
			}
			if at >= 0 && best < acked[k] {
				v.GroupLost++
				losses = append(losses, faults.Loss{Member: at, Key: k, Acked: acked[k], Found: best})
			}
		}
	}

	// Reboot the victims and catch them up from live peers — with, in the
	// recovery-under-failure arm, a second replica power-failing shortly
	// after the transfers begin. That one recovers too, and anti-entropy runs
	// on every replica still marked behind (including healthy ones that
	// merely missed an RPC), so the convergence audit is meaningful.
	if !o.NoCut {
		if err := reboot(sp.CutReplica); err != nil {
			return Outcome{}, err
		}
		peer := (sp.CutReplica + 1) % R
		if sp.CutPeerDuringCatchup {
			cut(peer, 200*time.Microsecond)
		}
		catchUp("catchup", sp.CutReplica, sp.CutReplica+1)
		if sp.CutPeerDuringCatchup {
			if err := reboot(peer); err != nil {
				return Outcome{}, err
			}
		}
		catchUp("anti-entropy", 0, R)
	}
	for g := 0; g < sp.Groups; g++ {
		for r := 0; r < R; r++ {
			v.BehindAfter += srv.Group(g).Behind(r)
		}
	}

	// Phase B — convergence: after reboot and catch-up, every replica of
	// every group must hold every acked key at or above its acked version.
	// (At R = 1 this is simply "did the sole copy survive".)
	if reads, err = readAll("postaudit"); err != nil {
		return Outcome{}, err
	}
	for g, ks := range byGroup {
		for i, k := range ks {
			for m := g * R; m < (g+1)*R; m++ {
				if reads[m] != nil {
					found(m, k, reads[m][i], true)
				}
			}
		}
	}
	slices.SortStableFunc(losses, func(a, b faults.Loss) int {
		return cmp.Or(cmp.Compare(a.Member, b.Member), cmp.Compare(a.Key, b.Key))
	})
	fv.AckedCommits = v.AckedCommits
	fv.LostCommits = v.GroupLost + v.DuraLost
	fv.TornPages = v.DuraTorn
	fv.Losses = losses[:min(len(losses), maxLosses)]
	return Outcome{Verdict: fv, Serve: v}, nil
}
