package sim

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// pingPongDigest builds a deliberately contentious cross-domain workload —
// every domain streams messages to every other, with overlapping delivery
// times and relays through otherwise idle domains — and returns a digest of
// the exact execution order observed. Any sensitivity to worker
// interleaving shows up as a digest change.
func pingPongDigest(t *testing.T, domains, workers int) string {
	t.Helper()
	c := NewCluster(domains, 100*time.Microsecond, workers)
	defer c.Close()
	// Each domain records into its own stream (cross-domain writes to one
	// shared log would race in parallel mode); the streams are merged by
	// (virtual time, domain id, per-domain order) after the run — the same
	// discipline the iotrace shard merge uses.
	type rec struct {
		at  time.Duration
		dom int
		seq int
		msg string
	}
	logs := make([][]rec, domains)
	log := func(d *Domain, what string) {
		logs[d.ID()] = append(logs[d.ID()], rec{at: d.Now(), dom: d.ID(), seq: len(logs[d.ID()]), msg: what})
	}
	// Each domain runs a local ticker plus a chatter process that sends a
	// token around the ring; receipt schedules more local work, so local
	// event order interleaves with injected messages.
	for i := 0; i < domains; i++ {
		d := c.Domain(i)
		d.Go(fmt.Sprintf("ticker-%d", i), func(p *Proc) {
			for k := 0; k < 40; k++ {
				p.Sleep(time.Duration(30+7*d.ID()) * time.Microsecond)
				log(d, "tick")
			}
		})
	}
	// A caller per ordered pair of domains: request/completion round trips
	// (Domain.Call) cross every lane boundary in both directions.
	for i := 0; i < domains; i++ {
		for j := 0; j < domains; j++ {
			if i == j {
				continue
			}
			src, dst := c.Domain(i), c.Domain(j)
			src.Go(fmt.Sprintf("caller-%d-%d", i, j), func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(time.Duration(50+11*i+3*j) * time.Microsecond)
					src.Call(p, dst, "callee", func(q *Proc) {
						q.Sleep(5 * time.Microsecond)
						log(dst, "serve")
					})
					log(src, "reply")
				}
			})
		}
	}
	var hop func(d *Domain, ttl int)
	hop = func(d *Domain, ttl int) {
		log(d, "hop")
		if ttl == 0 {
			return
		}
		next := c.Domain((d.ID() + 1) % domains)
		d.Send(next, func() { hop(next, ttl-1) })
		// Also fan out a short-lived burst to every other domain so
		// multiple sources target one destination at equal times.
		for j := 0; j < domains; j++ {
			if j == d.ID() {
				continue
			}
			dst := c.Domain(j)
			d.Send(dst, func() { log(dst, "burst") })
		}
	}
	first := c.Domain(0)
	first.Go("kickoff", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		hop(first, 25)
	})
	c.Run()
	var all []rec
	for _, l := range logs {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].at != all[j].at {
			return all[i].at < all[j].at
		}
		if all[i].dom != all[j].dom {
			return all[i].dom < all[j].dom
		}
		return all[i].seq < all[j].seq
	})
	var b strings.Builder
	for _, r := range all {
		fmt.Fprintf(&b, "%d %s %d\n", r.dom, r.msg, int64(r.at))
	}
	fmt.Fprintf(&b, "events=%d\n", c.Events())
	for i := 0; i < domains; i++ {
		fmt.Fprintf(&b, "now%d=%d\n", i, int64(c.Domain(i).Now()))
	}
	return b.String()
}

// TestClusterDeterminism is the core guarantee: the same program produces a
// byte-identical schedule at any worker count and any GOMAXPROCS. Five
// domains make lane ownership uneven at 2, 3 and 4 lanes.
func TestClusterDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := pingPongDigest(t, 5, 1)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 3, 4, 8} {
			if got := pingPongDigest(t, 5, workers); got != want {
				t.Fatalf("GOMAXPROCS=%d workers=%d: schedule diverged from the 1-worker baseline\n got: %.200s\nwant: %.200s",
					procs, workers, got, want)
			}
		}
	}
}

// TestLaneFillsCacheLine pins the padding arithmetic in lane: adding a field
// without shrinking the pad would put two lanes' spin words on one line.
func TestLaneFillsCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(lane{}); got != cacheLine {
		t.Fatalf("lane is %d bytes, want one %d-byte cache line", got, cacheLine)
	}
}

// waitParked polls until lane l of c has spent its spin budget and parked.
func waitParked(c *Cluster, l int) {
	for !c.lanes[l].parked.Load() {
		runtime.Gosched()
	}
}

// TestClusterLanes pins the worker-count contract: a cluster runs on
// min(workers, domains, GOMAXPROCS) lanes, starts lanes-1 goroutines on its
// first Run and not before, and Close releases them whether they are still
// spinning or already parked.
func TestClusterLanes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
	settled := func(want int) bool {
		// A worker that has passed wg.Done may still be on its way out, and
		// the host may have descheduled its thread: poll long, never sleep.
		for i := 0; i < 1<<22 && runtime.NumGoroutine() != want; i++ {
			runtime.Gosched()
		}
		return runtime.NumGoroutine() == want
	}
	for _, tc := range []struct{ domains, workers, procs, lanes int }{
		{4, 0, 4, 1}, {4, 1, 4, 1}, {4, 2, 4, 2}, {5, 3, 4, 3}, {2, 8, 4, 2}, {13, 8, 4, 4}, {4, 4, 1, 1},
	} {
		for _, park := range []bool{false, true} {
			runtime.GOMAXPROCS(tc.procs)
			c := NewCluster(tc.domains, 10*time.Microsecond, tc.workers)
			runtime.GOMAXPROCS(4)
			if len(c.lanes) != tc.lanes {
				t.Fatalf("%+v: %d lanes, want %d", tc, len(c.lanes), tc.lanes)
			}
			for i := 0; i < tc.domains; i++ {
				c.Domain(i).Go("tick", func(p *Proc) { p.Sleep(time.Microsecond) })
			}
			if got := runtime.NumGoroutine(); got != base {
				t.Fatalf("%+v: %d goroutines before the first Run, want %d", tc, got, base)
			}
			c.Run()
			// Every domain ran one process, so each holds one idle carrier
			// (a coroutine counts as a goroutine) until Close.
			carriers := 0
			for i := 0; i < tc.domains; i++ {
				eng := c.Domain(i).Engine()
				if len(eng.all) != 1 || len(eng.idle) != 1 {
					t.Fatalf("%+v: domain %d has %d carriers, %d idle, want 1 and 1", tc, i, len(eng.all), len(eng.idle))
				}
				carriers += len(eng.all)
			}
			if got, want := runtime.NumGoroutine(), base+tc.lanes-1+carriers; got != want {
				t.Fatalf("%+v: %d goroutines after Run, want %d", tc, got, want)
			}
			for l := 1; park && l < tc.lanes; l++ {
				waitParked(c, l)
			}
			c.Close()
			c.Close()
			if !settled(base) {
				t.Fatalf("%+v park=%t: %d goroutines after Close, want %d", tc, park, runtime.NumGoroutine(), base)
			}
		}
	}
	c := NewCluster(4, 10*time.Microsecond, 4)
	c.Close() // before any Run: nothing to release
	c.Close()
	if !settled(base) {
		t.Fatalf("Close without Run left %d goroutines, want %d", runtime.NumGoroutine(), base)
	}
}

// TestClusterInjectOrder pins the merge order: messages drained at one
// barrier are injected by (delivery time, source domain, source seq), so
// equal-time messages from three sources run source-major in send order.
func TestClusterInjectOrder(t *testing.T) {
	const latency = 100 * time.Microsecond
	c := NewCluster(4, latency, 1)
	defer c.Close()
	dst := c.Domain(3)
	var got []string
	// All sends fall inside the first epoch. Every source sends at 10µs and
	// 20µs alternately, so the drained buffer is source-major but not sorted
	// by time, and each delivery instant holds 10 messages from each source.
	for s := 0; s < 3; s++ {
		src := c.Domain(s)
		for k := 0; k < 20; k++ {
			at, tag := time.Duration(10+10*(k%2))*time.Microsecond, fmt.Sprintf("s%dk%d", s, k)
			src.Engine().Schedule(at, func() { src.Send(dst, func() { got = append(got, tag) }) })
		}
	}
	c.Run()
	var want []string
	for parity := 0; parity < 2; parity++ {
		for s := 0; s < 3; s++ {
			for k := parity; k < 20; k += 2 {
				want = append(want, fmt.Sprintf("s%dk%d", s, k))
			}
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("injection order\n got %v\nwant %v", got, want)
	}
	if st := c.Stats(); st.Messages != 60 || st.BarrierEpochs != 0 {
		t.Fatalf("stats %+v, want 60 messages and no barrier on one lane", st)
	}
}

// TestClusterEpochZeroAlloc guards the barrier itself: a message-free epoch
// that crosses lanes allocates nothing — no channels, closures or results
// per epoch.
func TestClusterEpochZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c := NewCluster(2, 100*time.Microsecond, 2)
	defer c.Close()
	for i := 0; i < 2; i++ {
		c.Domain(i).Go("tick", func(p *Proc) {
			for {
				p.Sleep(20 * time.Microsecond)
			}
		})
	}
	deadline := time.Millisecond
	c.RunUntil(deadline) // start the workers and the coroutines
	before := c.Stats()
	// AllocsPerRun drops to GOMAXPROCS(1): the two lanes then take turns on
	// one P, by parking or by preemption.
	allocs := testing.AllocsPerRun(5, func() {
		deadline += 300 * time.Microsecond
		c.RunUntil(deadline)
	})
	after := c.Stats()
	if allocs != 0 {
		t.Fatalf("cross-lane epoch allocates %.1f per RunUntil, want 0", allocs)
	}
	if after.BarrierEpochs == before.BarrierEpochs || after.Messages != 0 {
		t.Fatalf("stats %+v → %+v: want barrier epochs and no messages", before, after)
	}
}

// TestClusterSendLatencyAndFIFO checks delivery timing (exactly one link
// latency after the send) and per-pair FIFO order, including messages that
// share one delivery instant.
func TestClusterSendLatencyAndFIFO(t *testing.T) {
	const latency = 50 * time.Microsecond
	c := NewCluster(2, latency, 1)
	defer c.Close()
	src, dst := c.Domain(0), c.Domain(1)
	var got []string
	src.Go("sender", func(p *Proc) {
		p.Sleep(30 * time.Microsecond)
		sent := p.Now()
		for i := 0; i < 3; i++ {
			i := i
			src.Send(dst, func() {
				if dst.Now() != sent+latency {
					t.Errorf("msg %d delivered at %v, want %v", i, dst.Now(), sent+latency)
				}
				got = append(got, fmt.Sprintf("m%d", i))
			})
		}
	})
	c.Run()
	if want := "m0 m1 m2"; strings.Join(got, " ") != want {
		t.Fatalf("delivery order %v, want %q (per-pair FIFO at one instant)", got, want)
	}
}

// TestClusterSelfSend checks that a domain sending to itself behaves like a
// plain local event one latency in the future.
func TestClusterSelfSend(t *testing.T) {
	c := NewCluster(2, 10*time.Microsecond, 1)
	defer c.Close()
	d := c.Domain(0)
	fired := time.Duration(-1)
	d.Go("self", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		d.Send(d, func() { fired = d.Now() })
	})
	c.Run()
	if want := 15 * time.Microsecond; fired != want {
		t.Fatalf("self-send fired at %v, want %v", fired, want)
	}
}

// TestClusterCall checks the request/completion round trip: the callee runs
// in the destination domain, the caller resumes only after the completion
// hop, and the callee's writes are visible to the caller.
func TestClusterCall(t *testing.T) {
	const latency = 25 * time.Microsecond
	for _, workers := range []int{1, 4} {
		c := NewCluster(3, latency, workers)
		src, dst := c.Domain(0), c.Domain(2)
		var result int
		var returned time.Duration
		src.Go("caller", func(p *Proc) {
			p.Sleep(40 * time.Microsecond)
			src.Call(p, dst, "callee", func(q *Proc) {
				if q.Engine() != dst.Engine() {
					t.Error("callee running on the wrong engine")
				}
				q.Sleep(7 * time.Microsecond)
				result = 42
			})
			returned = p.Now()
		})
		c.Run()
		c.Close()
		if result != 42 {
			t.Fatalf("workers=%d: callee write not visible: result=%d", workers, result)
		}
		// send hop + callee sleep + completion hop
		if want := 40*time.Microsecond + latency + 7*time.Microsecond + latency; returned != want {
			t.Fatalf("workers=%d: caller resumed at %v, want %v", workers, returned, want)
		}
	}
}

// TestClusterCallLocal checks the same-domain fast path runs inline with no
// link hops.
func TestClusterCallLocal(t *testing.T) {
	c := NewCluster(2, 25*time.Microsecond, 1)
	defer c.Close()
	d := c.Domain(0)
	var returned time.Duration
	d.Go("caller", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		d.Call(p, d, "callee", func(q *Proc) { q.Sleep(3 * time.Microsecond) })
		returned = p.Now()
	})
	c.Run()
	if want := 13 * time.Microsecond; returned != want {
		t.Fatalf("local call returned at %v, want %v (no link hops)", returned, want)
	}
}

// TestClusterBlockedSorted pins the satellite requirement: Cluster.Blocked
// returns one globally sorted list — domain layout and registration order
// must not leak into the report.
func TestClusterBlockedSorted(t *testing.T) {
	c := NewCluster(3, 10*time.Microsecond, 1)
	defer c.Close()
	// Register in an order that is neither sorted globally nor by domain:
	// domain 2 gets "alpha" last, domain 0 gets "zeta" first.
	block := func(p *Proc) { NewSignal(p.Engine()).Wait(p) }
	c.Domain(0).Go("zeta", block)
	c.Domain(1).Go("mid", block)
	c.Domain(0).Go("beta", block)
	c.Domain(2).Go("alpha", block)
	c.Run()
	got := strings.Join(c.Blocked(), ",")
	if want := "alpha,beta,mid,zeta"; got != want {
		t.Fatalf("Blocked() = %q, want %q", got, want)
	}
}

// TestClusterRunUntil checks deadline semantics: events past the deadline
// stay queued and every domain clock lands exactly on the deadline.
func TestClusterRunUntil(t *testing.T) {
	c := NewCluster(2, 10*time.Microsecond, 1)
	defer c.Close()
	var late bool
	c.Domain(1).Engine().Schedule(300*time.Microsecond, func() { late = true })
	var early bool
	c.Domain(0).Engine().Schedule(50*time.Microsecond, func() { early = true })
	c.RunUntil(100 * time.Microsecond)
	if !early || late {
		t.Fatalf("early=%v late=%v after RunUntil(100µs)", early, late)
	}
	for i := 0; i < 2; i++ {
		if now := c.Domain(i).Now(); now != 100*time.Microsecond {
			t.Fatalf("domain %d clock %v, want 100µs", i, now)
		}
	}
	c.Run()
	if !late {
		t.Fatal("late event never fired after drain")
	}
}

// TestClusterPanicDeterministic checks that a panicking process surfaces
// from Cluster.Run with domain attribution, identically at any worker
// count, and that when several domains panic in one epoch — on different
// lanes at every lane count above one — the lowest domain id wins.
func TestClusterPanicDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	run := func(workers int) (msg string) {
		c := NewCluster(4, 10*time.Microsecond, workers)
		defer c.Close()
		defer func() { msg = fmt.Sprint(recover()) }()
		// All panic at the same virtual instant, in the same epoch. Domains
		// 1 and 2 never share a lane; 3 joins 1 at two lanes.
		c.Domain(3).Go("boom-hi", func(p *Proc) { p.Sleep(5 * time.Microsecond); panic("hi") })
		c.Domain(2).Go("boom-mid", func(p *Proc) { p.Sleep(5 * time.Microsecond); panic("mid") })
		c.Domain(1).Go("boom-lo", func(p *Proc) { p.Sleep(5 * time.Microsecond); panic("lo") })
		c.Run()
		return ""
	}
	want := run(1)
	if !strings.Contains(want, "domain 1") || !strings.Contains(want, "boom-lo") {
		t.Fatalf("sequential panic = %q, want domain-1 attribution", want)
	}
	for _, workers := range []int{2, 3, 4} {
		if got := run(workers); got != want {
			t.Fatalf("workers=%d: panic %q, want %q", workers, got, want)
		}
	}
}

// TestClusterOwnedEngineGuard checks that a domain-owned engine refuses
// direct Run calls.
func TestClusterOwnedEngineGuard(t *testing.T) {
	c := NewCluster(1, 10*time.Microsecond, 1)
	defer c.Close()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "owned by a cluster domain") {
			t.Fatalf("recover() = %v, want owned-engine panic", r)
		}
	}()
	c.Domain(0).Engine().Run()
}

// TestClusterCloseIdempotent checks double-Close and use-after-Close.
func TestClusterCloseIdempotent(t *testing.T) {
	c := NewCluster(2, 10*time.Microsecond, 4)
	c.Domain(0).Go("noop", func(p *Proc) { p.Sleep(time.Microsecond) })
	c.Run()
	c.Close()
	c.Close()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Run after Close did not panic")
		}
	}()
	c.Run()
}

// TestClusterSingleDomain checks the degenerate 1-domain cluster matches a
// standalone engine's schedule exactly.
func TestClusterSingleDomain(t *testing.T) {
	program := func(eng *Engine, b *strings.Builder) {
		q := NewQueue(eng)
		eng.Go("prod", func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Sleep(3 * time.Microsecond)
				q.WakeOne()
				fmt.Fprintf(b, "prod %d\n", int64(p.Now()))
			}
		})
		eng.Go("cons", func(p *Proc) {
			for i := 0; i < 20; i++ {
				q.Wait(p)
				fmt.Fprintf(b, "cons %d\n", int64(p.Now()))
			}
		})
	}
	var solo strings.Builder
	eng := New()
	program(eng, &solo)
	eng.Run()

	var clustered strings.Builder
	c := NewCluster(1, 10*time.Microsecond, 1)
	defer c.Close()
	program(c.Domain(0).Engine(), &clustered)
	c.Run()

	if solo.String() != clustered.String() {
		t.Fatalf("1-domain cluster diverged from standalone engine:\n%s\nvs\n%s", clustered.String(), solo.String())
	}
}

// TestClusterReuseAcrossRuns checks the cluster can be driven in several
// RunUntil slices with cross-domain traffic spanning the boundaries, and
// that a gap long enough for the worker to park between them loses nothing.
func TestClusterReuseAcrossRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c := NewCluster(2, 20*time.Microsecond, 2)
	defer c.Close()
	var delivered []int64
	a, b := c.Domain(0), c.Domain(1)
	a.Go("drip", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(15 * time.Microsecond)
			a.Send(b, func() { delivered = append(delivered, int64(b.Now())) })
		}
	})
	c.RunUntil(40 * time.Microsecond)
	n := len(delivered)
	if n == 0 || n == 10 {
		t.Fatalf("partial run delivered %d messages, want a strict subset", n)
	}
	waitParked(c, 1)
	c.Run()
	if st := c.Stats(); st.Parks == 0 {
		t.Fatalf("stats %+v: waking the parked worker was not counted", st)
	}
	if len(delivered) != 10 {
		t.Fatalf("delivered %d messages total, want 10", len(delivered))
	}
	for i := 1; i < len(delivered); i++ {
		if delivered[i] <= delivered[i-1] {
			t.Fatalf("deliveries out of order: %v", delivered)
		}
	}
}
