package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
)

// groupHarness is a front domain plus one R-way replica group over
// timing-mode DuraSSD stores, keys 0..63.
type groupHarness struct {
	cluster *sim.Cluster
	front   *sim.Domain
	g       *Group
	stores  []*Store
	devs    []storage.Device
}

func buildGroupHarness(t *testing.T, replicas int) *groupHarness {
	t.Helper()
	return buildGroupHarnessOn(t, 1, replicas)
}

// buildGroupHarnessOn runs the harness's cluster on the given number of
// workers: same schedule, but the front and the replicas on different lanes.
func buildGroupHarnessOn(t *testing.T, workers, replicas int) *groupHarness {
	t.Helper()
	cluster := sim.NewCluster(1+replicas, 100*time.Microsecond, workers)
	t.Cleanup(cluster.Close)
	front := cluster.Domain(0)
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i)
	}
	h := &groupHarness{cluster: cluster, front: front}
	for r := 0; r < replicas; r++ {
		dom := cluster.Domain(1 + r)
		dev, err := ssd.New(dom.Engine(), ssd.DuraSSD(16))
		if err != nil {
			t.Fatalf("ssd.New: %v", err)
		}
		st, err := OpenStore(dom, dev, keys, StoreConfig{})
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		h.devs = append(h.devs, dev)
		h.stores = append(h.stores, st)
	}
	g, err := NewGroup(0, front, h.stores)
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	h.g = g
	return h
}

// A quorum Put converges on every replica once the cluster drains, and a
// subsequent Get observes it.
func TestGroupQuorumPutConverges(t *testing.T) {
	h := buildGroupHarness(t, 3)
	var (
		ver    uint64
		got    uint64
		found  bool
		putErr error
		getErr error
	)
	h.front.Go("writer", func(p *sim.Proc) {
		ver, putErr = h.g.Put(p, 7)
		got, found, getErr = h.g.Get(p, 7)
	})
	h.cluster.Run()
	if putErr != nil || getErr != nil {
		t.Fatalf("put err %v, get err %v", putErr, getErr)
	}
	if ver != 1 || got != 1 || !found {
		t.Fatalf("ver=%d got=%d found=%v, want 1/1/true", ver, got, found)
	}
	for r, st := range h.stores {
		if v := st.vers[7]; v != 1 {
			t.Errorf("replica %d version = %d, want 1 (all replicas converge after drain)", r, v)
		}
	}
}

// With one replica of three power-failed, writes still ack at W=2; with two
// down, the group sheds writes with ErrShardUnavailable, and the dead
// replicas accumulate behind-markers for the writes they missed.
func TestGroupMinorityLossAndQuorumLoss(t *testing.T) {
	h := buildGroupHarness(t, 3)
	h.devs[2].(storage.PowerCycler).PowerFail()
	var (
		ver1, ver2 uint64
		err1, err2 error
	)
	h.front.Go("writer", func(p *sim.Proc) {
		ver1, err1 = h.g.Put(p, 3)
		h.devs[1].(storage.PowerCycler).PowerFail()
		_, err2 = h.g.Put(p, 3)
		ver2 = h.g.vers[3]
	})
	h.cluster.Run()
	if err1 != nil || ver1 != 1 {
		t.Fatalf("minority loss: Put = (%d, %v), want (1, nil)", ver1, err1)
	}
	if !errors.Is(err2, ErrShardUnavailable) {
		t.Fatalf("quorum loss: Put err = %v, want ErrShardUnavailable", err2)
	}
	if ver2 != 2 {
		t.Errorf("version authority advanced to %d, want 2 (failed attempts burn a version)", ver2)
	}
	if h.g.Behind(2) == 0 {
		t.Errorf("dead replica 2 has no behind-markers; the write it missed must be tracked")
	}
	if _, _, _, unavail, _ := h.g.Counters(); unavail == 0 {
		t.Errorf("unavailable counter = 0, want > 0")
	}
}

// A rebooted replica catches up exactly the writes it missed from a live
// peer — a delta transfer — and then holds the latest version.
func TestGroupCatchUpAfterReboot(t *testing.T) {
	h := buildGroupHarness(t, 3)
	var putErr error
	h.front.Go("writer", func(p *sim.Proc) {
		for k := uint64(0); k < 8; k++ { // baseline: all replicas have v1
			if _, err := h.g.Put(p, k); err != nil && putErr == nil {
				putErr = err
			}
		}
	})
	h.cluster.Run()
	if putErr != nil {
		t.Fatalf("baseline puts: %v", putErr)
	}

	h.devs[2].(storage.PowerCycler).PowerFail()
	h.front.Go("writer2", func(p *sim.Proc) {
		for k := uint64(0); k < 4; k++ { // missed by replica 2
			if _, err := h.g.Put(p, k); err != nil && putErr == nil {
				putErr = err
			}
		}
	})
	h.cluster.Run()
	if putErr != nil {
		t.Fatalf("degraded puts: %v", putErr)
	}
	missed := h.g.Behind(2)
	if missed != 4 {
		t.Fatalf("replica 2 behind on %d keys, want 4", missed)
	}

	var rebootErr error
	h.stores[2].Domain().Go("reboot", func(p *sim.Proc) {
		rebootErr = h.devs[2].(storage.PowerCycler).Reboot(p)
	})
	h.cluster.Run()
	if rebootErr != nil {
		t.Fatalf("reboot: %v", rebootErr)
	}
	var transferred int
	h.front.Go("catchup", func(p *sim.Proc) {
		transferred = h.g.CatchUp(p, 2)
	})
	h.cluster.Run()
	if transferred != missed {
		t.Errorf("catch-up transferred %d keys, want %d (the delta, not the %d-key space)",
			transferred, missed, len(h.stores[2].slots))
	}
	if h.g.Behind(2) != 0 {
		t.Errorf("replica 2 still behind on %d keys after catch-up", h.g.Behind(2))
	}
	for k := uint64(0); k < 4; k++ {
		if v := h.stores[2].vers[k]; v != 2 {
			t.Errorf("replica 2 key %d version = %d, want 2 after catch-up", k, v)
		}
	}
	if h.g.reps[2].br.Open() {
		t.Errorf("breaker still open after successful catch-up")
	}
}

// A browned-out preferred replica triggers the hedged second read, and the
// hedge answers; a replica slower than the deadline trips the deadline
// counter and the read fails over.
func TestGroupHedgedReadAndDeadline(t *testing.T) {
	const key = 11
	h := buildGroupHarness(t, 3)
	preferred := RendezvousOrder(key, 3, nil)[0]
	var (
		got   uint64
		found bool
		err   error
	)
	h.front.Go("driver", func(p *sim.Proc) {
		if _, perr := h.g.Put(p, key); perr != nil {
			err = perr
			return
		}
		h.stores[preferred].SetSlowdown(2 * time.Millisecond) // > hedgeAfter, < callTimeout
		got, found, err = h.g.Get(p, key)
	})
	h.cluster.Run()
	if err != nil || !found || got != 1 {
		t.Fatalf("hedged read = (%d, %v, %v), want (1, true, nil)", got, found, err)
	}
	hedges, _, _, _, _ := h.g.Counters()
	if hedges == 0 {
		t.Errorf("hedges = 0, want > 0 (preferred replica slower than hedgeAfter)")
	}

	// Now slower than the deadline on every replica the read tries first:
	// the deadline fires and the read still answers via failover/retry.
	h.front.Go("driver2", func(p *sim.Proc) {
		h.stores[preferred].SetSlowdown(20 * time.Millisecond) // > callTimeout
		got, found, err = h.g.Get(p, key)
	})
	h.cluster.Run()
	if err != nil || !found || got != 1 {
		t.Fatalf("deadline read = (%d, %v, %v), want (1, true, nil)", got, found, err)
	}
	_, deadlines, _, _, _ := h.g.Counters()
	if deadlines == 0 {
		t.Errorf("deadlines = 0, want > 0 (replica slower than callTimeout)")
	}
}

// The breaker state machine: opens at 4 consecutive failures, refuses while
// cooling down for 15ms, half-opens exactly one probe, and closes on probe
// success / re-opens on probe failure.
func TestBreakerLifecycle(t *testing.T) {
	var b Breaker
	now := time.Duration(0)
	for i := 0; i < 3; i++ {
		b.Failure(now)
		if b.Open() {
			t.Fatalf("open after %d failures, threshold is 4", i+1)
		}
	}
	b.Success() // resets the consecutive count
	for i := 0; i < 4; i++ {
		b.Failure(now)
	}
	if !b.Open() || b.Opens() != 1 {
		t.Fatalf("want open with 1 transition, got open=%v opens=%d", b.Open(), b.Opens())
	}
	if b.Allow(now + 5*time.Millisecond) {
		t.Fatalf("allowed during cooldown")
	}
	probeAt := now + 16*time.Millisecond
	if !b.Allow(probeAt) {
		t.Fatalf("half-open probe refused after cooldown")
	}
	if b.Allow(probeAt) {
		t.Fatalf("second concurrent probe allowed; half-open admits exactly one")
	}
	b.Failure(probeAt + time.Millisecond) // probe failed: cooldown restarts
	if b.Allow(probeAt + 2*time.Millisecond) {
		t.Fatalf("allowed right after failed probe")
	}
	if !b.Allow(probeAt + 18*time.Millisecond) {
		t.Fatalf("probe refused after restarted cooldown")
	}
	b.Success()
	if b.Open() {
		t.Fatalf("still open after successful probe")
	}
	if !b.Allow(probeAt + 19*time.Millisecond) {
		t.Fatalf("closed breaker refused traffic")
	}
}

// Rendezvous minimal movement: excluding one replica changes the preferred
// replica only for keys that preferred the excluded one — every other key
// keeps its assignment, so a replica death never reshuffles healthy routes.
func TestRendezvousMinimalMovement(t *testing.T) {
	const n, dead = 5, 2
	moved, kept := 0, 0
	for key := uint64(0); key < 2000; key++ {
		full := RendezvousOrder(key, n, nil)
		pruned := RendezvousOrder(key, n, func(ri int) bool { return ri != dead })
		if len(full) != n || len(pruned) != n-1 {
			t.Fatalf("key %d: lengths %d/%d, want %d/%d", key, len(full), len(pruned), n, n-1)
		}
		if full[0] == dead {
			moved++
			// The new preference must be the old runner-up.
			if pruned[0] != full[1] {
				t.Fatalf("key %d: after losing its preferred replica, top = %d, want old runner-up %d",
					key, pruned[0], full[1])
			}
			continue
		}
		kept++
		if pruned[0] != full[0] {
			t.Fatalf("key %d: preferred replica moved %d -> %d though replica %d was not its choice",
				key, full[0], pruned[0], dead)
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
	// Roughly 1/n of the keys should have preferred the dead replica.
	if moved < 200 || moved > 700 {
		t.Errorf("moved=%d of 2000, want roughly 1/%d", moved, n)
	}
}

// forEachLaneCount runs a record-lifecycle test on one worker and on four:
// the records are written by two domains, and only a cluster with more than
// one lane lets the race detector see both sides at once.
func forEachLaneCount(t *testing.T, test func(t *testing.T, workers int)) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { test(t, workers) })
	}
}

// checkRecordsIdle asserts that an idle group holds every record it ever
// made on its free lists, each exactly once and with nothing referring to
// it: calls RPC records and attempts attempt records.
func checkRecordsIdle(t *testing.T, g *Group, calls, attempts int) {
	t.Helper()
	if len(g.calls) != calls || len(g.attempts) != attempts {
		t.Fatalf("idle group holds %d RPC records and %d attempts, want %d and %d",
			len(g.calls), len(g.attempts), calls, attempts)
	}
	seenCall := map[*rpcCall]bool{}
	for _, c := range g.calls {
		if seenCall[c] {
			t.Fatalf("RPC record released twice")
		}
		seenCall[c] = true
		armed := c.tm.Stop() // false, and a no-op, on an idle timer
		if c.at != nil || armed || c.err != nil {
			t.Errorf("free RPC record still live: attempt %p, deadline armed %v, err %v", c.at, armed, c.err)
		}
	}
	seenAttempt := map[*attempt]bool{}
	for _, a := range g.attempts {
		if seenAttempt[a] {
			t.Fatalf("attempt released twice")
		}
		seenAttempt[a] = true
		if a.refs != 0 || a.acks != 0 || a.fails != 0 || a.firstErr != nil || a.done || a.wake.Len() != 0 || a.hedge.Stop() {
			t.Errorf("free attempt not clean: %+v", a)
		}
	}
}

// A write returns at W acks while the RPC to a slow third replica is still
// out. That RPC's late ack must find its own attempt: the next write cannot
// have taken the record over, the ack still counts for the slow replica's
// health and behind set, and in the end every record is back exactly once.
func TestGroupLateAckFindsItsOwnAttempt(t *testing.T) {
	forEachLaneCount(t, func(t *testing.T, workers int) {
		const keyA, keyB, slow = 7, 8, 2
		h := buildGroupHarnessOn(t, workers, 3)
		h.stores[slow].SetSlowdown(2 * time.Millisecond) // late, but inside the 8ms deadline
		// As if the slow replica had timed out on keyA once before.
		h.g.reps[slow].behind[keyA] = 1
		h.g.reps[slow].br.Failure(0)

		h.front.Go("writer", func(p *sim.Proc) {
			if _, err := h.g.Put(p, keyA); err != nil {
				t.Errorf("put A: %v", err)
			}
			// Acked at 2 of 3: the fast replicas' records are back, the attempt
			// is held by the RPC still out.
			if len(h.g.calls) != 2 || len(h.g.attempts) != 0 {
				t.Errorf("after put A: %d free RPC records, %d free attempts, want 2 and 0", len(h.g.calls), len(h.g.attempts))
			}
			p.Sleep(time.Millisecond) // keep the two late acks well apart
			if _, err := h.g.Put(p, keyB); err != nil {
				t.Errorf("put B: %v", err)
			}
			if len(h.g.calls) != 2 || len(h.g.attempts) != 0 {
				t.Errorf("after put B: %d free RPC records, %d free attempts, want 2 (reused) and 0", len(h.g.calls), len(h.g.attempts))
			}
			for h.g.Behind(slow) != 0 { // until A's late ack lands
				p.Sleep(50 * time.Microsecond)
			}
			// A's ack healed the replica and freed A's attempt and nothing else:
			// B's attempt is still out with its slow RPC.
			if f := h.g.reps[slow].br.fails; f != 0 {
				t.Errorf("late ack left %d consecutive failures on the breaker", f)
			}
			if len(h.g.calls) != 3 || len(h.g.attempts) != 1 {
				t.Errorf("after A's late ack: %d free RPC records, %d free attempts, want 3 and 1", len(h.g.calls), len(h.g.attempts))
			}
		})
		h.cluster.Run()
		for _, k := range []uint64{keyA, keyB} {
			if v := h.stores[slow].vers[k]; v != 1 {
				t.Errorf("slow replica key %d at version %d, want 1", k, v)
			}
		}
		// Two attempts were live at once, and four RPCs (B reused two of A's).
		checkRecordsIdle(t, h.g, 4, 2)
	})
}

// A read's deadline fires, the retry succeeds, and only then does the first
// RPC's completion arrive. The deadline was that RPC's one report: the late
// completion counts for health and gives its record back, nothing else, and
// the record is not reused while it is still out.
func TestGroupDeadlineThenLateCompletion(t *testing.T) {
	forEachLaneCount(t, func(t *testing.T, workers int) {
		const key = 5
		h := buildGroupHarnessOn(t, workers, 1)
		st := h.stores[0]
		st.SetSlowdown(3 * callTimeout)
		// Back to speed before the retry (deadline + backoff ≥ 8.2ms) gets there.
		st.Domain().Engine().Schedule(callTimeout, func() { st.SetSlowdown(0) })

		h.front.Go("reader", func(p *sim.Proc) {
			ver, found, err := h.g.Get(p, key)
			if err != nil || !found || ver != 0 {
				t.Errorf("get = (%d, %v, %v), want (0, true, nil)", ver, found, err)
			}
			if now := p.Now(); now >= 3*callTimeout {
				t.Errorf("get returned at %v: the retry should beat the slow first read", now)
			}
			_, deadlines, retries, _, _ := h.g.Counters()
			if deadlines != 1 || retries != 1 {
				t.Errorf("deadlines %d retries %d, want 1 and 1", deadlines, retries)
			}
			// The retry reused the attempt (its one RPC had reported) but needed
			// a second RPC record: the first is still out.
			if len(h.g.calls) != 1 || len(h.g.attempts) != 1 {
				t.Errorf("after the retry: %d free RPC records, %d free attempts, want 1 and 1", len(h.g.calls), len(h.g.attempts))
			}
		})
		h.cluster.Run()
		if gets := st.gets; gets != 2 {
			t.Errorf("store served %d reads, want 2 (the slow one completed too)", gets)
		}
		if _, deadlines, _, _, _ := h.g.Counters(); deadlines != 1 {
			t.Errorf("deadlines = %d after the late completion, want 1", deadlines)
		}
		if h.g.reps[0].br.Open() || h.g.reps[0].br.fails != 0 {
			t.Errorf("breaker not reset by the successes that followed the deadline")
		}
		checkRecordsIdle(t, h.g, 2, 1)
	})
}

// The hedge timer belongs to the attempt record and outlives the read: a
// read that finished in time must leave it stopped, and a hedge that does
// fire launches one more read and counts once.
func TestGroupHedgeTimerLifecycle(t *testing.T) {
	forEachLaneCount(t, func(t *testing.T, workers int) {
		const key = 11
		h := buildGroupHarnessOn(t, workers, 3)
		reads := func() (n int64) {
			for _, st := range h.stores {
				n += st.gets
			}
			return n
		}
		get := func(name string) {
			h.front.Go(name, func(p *sim.Proc) {
				if _, found, err := h.g.Get(p, key); err != nil || !found {
					t.Errorf("%s: found %v, err %v", name, found, err)
				}
			})
			h.cluster.Run() // drains: a hedge timer left armed would fire here
		}

		get("fast")
		if hedges, _, _, _, _ := h.g.Counters(); hedges != 0 || reads() != 1 {
			t.Fatalf("fast read: %d hedges, %d replica reads, want 0 and 1", hedges, reads())
		}
		checkRecordsIdle(t, h.g, 1, 1)

		preferred := RendezvousOrder(key, 3, nil)[0]
		h.stores[preferred].SetSlowdown(2 * time.Millisecond) // > hedgeAfter, < callTimeout
		get("hedged")
		if hedges, _, _, _, _ := h.g.Counters(); hedges != 1 || reads() != 3 {
			t.Fatalf("slow preferred replica: %d hedges, %d replica reads in all, want 1 and 3", hedges, reads())
		}
		checkRecordsIdle(t, h.g, 2, 1)
	})
}

// TestGroupSteadyStateAllocs: once the records, rings and coroutines exist,
// a put or a get through a 3-replica group allocates nothing of its own —
// not in the group, the RPCs, the stores or the host layer. What is left is
// the devices' first-touch bookkeeping: a NAND page programmed for the
// first time costs its OOB record and that record's slot list, and a
// log-structured device that has not erased yet programs only such pages.
func TestGroupSteadyStateAllocs(t *testing.T) {
	h := buildGroupHarness(t, 3)
	const keys = 64
	pass := func() {
		h.front.Go("driver", func(p *sim.Proc) {
			for k := uint64(0); k < keys; k++ {
				if _, err := h.g.Put(p, k); err != nil {
					t.Errorf("put %d: %v", k, err)
				}
				if _, _, err := h.g.Get(p, k); err != nil {
					t.Errorf("get %d: %v", k, err)
				}
			}
		})
		h.cluster.Run()
	}
	programs := func() (n int64) {
		for _, dev := range h.devs {
			n += dev.Registry().Stats().NANDPrograms
		}
		return n
	}
	pass() // warm-up over the key set
	const runs = 5
	before := programs()
	perOp := testing.AllocsPerRun(runs, pass) / (2 * keys)
	firstTouch := 2 * float64(programs()-before) / (runs + 1) / (2 * keys) // AllocsPerRun adds a warm-up run
	t.Logf("%.2f allocs per group operation, %.2f of them first-touch NAND records", perOp, firstTouch)
	if own := perOp - firstTouch; own > 0.05 {
		t.Fatalf("%.2f allocs per group operation beyond the devices' first-touch records, want none", own)
	}
}

// RendezvousOrder ranks replicas 0..n-1 for a read of key by rendezvous
// (highest-random-weight) hashing over the replicas alive reports as up
// (nil admits all). The defining property — the reason replica death never
// reshuffles healthy assignments — is minimal movement: excluding one
// replica changes the top choice only for keys that preferred the excluded
// replica.
func RendezvousOrder(key uint64, n int, alive func(int) bool) []int {
	order, weights := make([]int, 0, n), make([]uint64, 0, n)
	h := mix64(key)
	for ri := 0; ri < n; ri++ {
		if alive == nil || alive(ri) {
			order, weights = rankInsert(order, weights, ri, mix64(h^replicaSalt(ri)))
		}
	}
	return order
}
