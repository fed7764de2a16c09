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

// linkAll joins every pair of c's domains: the clique the tests that send
// between arbitrary domains need.
func linkAll(c *Cluster) {
	for i := 0; i < c.Domains(); i++ {
		for j := i + 1; j < c.Domains(); j++ {
			c.Domain(i).Link(c.Domain(j))
		}
	}
}

// pingPongDigest builds a deliberately contentious cross-domain workload —
// every domain streams messages to every other, with overlapping delivery
// times and relays through otherwise idle domains — and returns a digest of
// the exact execution order observed. Any sensitivity to worker
// interleaving shows up as a digest change.
func pingPongDigest(t *testing.T, domains, workers int) string {
	t.Helper()
	c := NewCluster(domains, 100*time.Microsecond, workers)
	defer c.Close()
	linkAll(c)
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
	linkAll(c)
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
	linkAll(c) // unlinked, each RunUntil would be one epoch
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
	linkAll(c)
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
	for _, workers := range []int{1, 2, 4} {
		c := NewCluster(3, latency, workers)
		linkAll(c)
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

// TestClusterCallAllocs: a Call is one pooled record, a recycled process in
// the destination and two messages, so once warm it allocates nothing — what
// a caller pays is whatever its own closure captures. Two calls in flight at
// once need a record each, calls one after another share one, and the
// callee runs under the name of its own call.
func TestClusterCallAllocs(t *testing.T) {
	c := NewCluster(2, 10*time.Microsecond, 1)
	defer c.Close()
	linkAll(c)
	src, dst := c.Domain(0), c.Domain(1)
	go1, go2 := NewQueue(src.Engine()), NewQueue(src.Engine())
	calls := 0
	body := func(q *Proc) { q.Sleep(time.Microsecond) } // captures nothing
	src.Go("caller", func(p *Proc) {
		for {
			go1.Wait(p)
			src.Call(p, dst, "callee", body)
			calls++
		}
	})
	src.Go("second-caller", func(p *Proc) {
		for {
			go2.Wait(p)
			src.Call(p, dst, "second-callee", body)
			calls++
		}
	})
	c.Run() // both callers park

	go1.WakeOne()
	go2.WakeOne()
	c.Run()
	if calls != 2 || len(src.calls) != 2 || src.calls[0] == src.calls[1] {
		t.Fatalf("two calls at once: %d returned on %d records, want 2 on 2", calls, len(src.calls))
	}
	if n := len(dst.Engine().spare); n != 2 {
		t.Fatalf("destination holds %d spare process records, want 2", n)
	}

	stuck := NewQueue(dst.Engine())
	src.Go("third-caller", func(p *Proc) {
		src.Call(p, dst, "stuck-callee", func(q *Proc) { stuck.Wait(q) })
	})
	c.Run()
	if got := fmt.Sprint(dst.Engine().Blocked()); got != "[stuck-callee]" {
		t.Fatalf("destination Blocked() = %s, want the running call's own name", got)
	}
	stuck.WakeOne()
	c.Run()

	allocs := testing.AllocsPerRun(100, func() {
		go1.WakeOne()
		c.Run()
	})
	if allocs != 0 {
		t.Fatalf("warmed Call allocates %.1f, want 0", allocs)
	}
	if len(src.calls) != 2 {
		t.Fatalf("%d call records after the run, want still 2", len(src.calls))
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
	block := func(p *Proc) { NewQueue(p.Engine()).Wait(p) }
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
	linkAll(c)
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

// TestClusterUnlinkedSendPanics: Send and Call to a domain the sender has no
// Link to panic with both ids — directly when the cluster is idle, and out of
// Run with domain attribution when a process does it, identically whether
// that process ran on the coordinator's lane or on a worker's.
func TestClusterUnlinkedSendPanics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	idle := NewCluster(3, 10*time.Microsecond, 1)
	defer idle.Close()
	idle.Domain(0).Link(idle.Domain(1))
	if msg := mustPanic(t, "idle Send", func() { idle.Domain(1).Send(idle.Domain(2), func() {}) }); !strings.Contains(msg, "domain 1 sent to domain 2 without a Link") {
		t.Fatalf("idle Send: %q", msg)
	}
	for _, tc := range []struct {
		name string
		act  func(p *Proc, src, dst *Domain)
	}{
		{"send", func(_ *Proc, src, dst *Domain) { src.Send(dst, func() {}) }},
		{"call", func(p *Proc, src, dst *Domain) { src.Call(p, dst, "callee", func(*Proc) {}) }},
	} {
		run := func(workers int) (msg string) {
			c := NewCluster(4, 10*time.Microsecond, workers)
			defer c.Close()
			defer func() { msg = fmt.Sprint(recover()) }()
			c.Domain(0).Link(c.Domain(1))
			c.Domain(1).Link(c.Domain(2))
			// Domain 1 is lane 1's at two workers; 3 is reachable from nowhere.
			src, dst := c.Domain(1), c.Domain(3)
			src.Go("stray", func(p *Proc) {
				p.Sleep(5 * time.Microsecond)
				tc.act(p, src, dst)
			})
			c.Run()
			return ""
		}
		want := `sim: domain 1: sim: process "stray" panicked: sim: domain 1 sent to domain 3 without a Link`
		for _, workers := range []int{1, 2} {
			if got := run(workers); got != want {
				t.Fatalf("%s, workers=%d: panic %q, want %q", tc.name, workers, got, want)
			}
		}
	}
}

// TestClusterUnlinkedDomainsOneEpoch: domains with no link share no barrier —
// each drains, or reaches the deadline, in the run's single epoch.
func TestClusterUnlinkedDomainsOneEpoch(t *testing.T) {
	const n = 5
	for _, workers := range []int{1, 2} {
		c := NewCluster(n, 10*time.Microsecond, workers)
		ticks := make([]int, n)
		for i := 0; i < n; i++ {
			c.Domain(i).Go("tick", func(p *Proc) {
				for k := 0; k < 100*(i+1); k++ {
					p.Sleep(time.Duration(3+i) * time.Microsecond)
					ticks[i]++
				}
			})
		}
		const deadline = 200 * time.Microsecond
		c.RunUntil(deadline)
		for i := 0; i < n; i++ {
			if now := c.Domain(i).Now(); now != deadline {
				t.Fatalf("workers=%d: domain %d clock %v after RunUntil(%v)", workers, i, now, deadline)
			}
			if want := int(deadline / (time.Duration(3+i) * time.Microsecond)); ticks[i] != want {
				t.Fatalf("workers=%d: domain %d ticked %d times by %v, want %d", workers, i, ticks[i], deadline, want)
			}
		}
		if st := c.Stats(); st.Epochs != 1 {
			t.Fatalf("workers=%d: RunUntil took %d epochs, want 1", workers, st.Epochs)
		}
		c.Run()
		for i := 0; i < n; i++ {
			if ticks[i] != 100*(i+1) {
				t.Fatalf("workers=%d: domain %d ticked %d times in all, want %d", workers, i, ticks[i], 100*(i+1))
			}
		}
		if st := c.Stats(); st.Epochs != 2 || st.Messages != 0 {
			t.Fatalf("workers=%d: stats %+v, want one epoch per run and no messages", workers, st)
		}
		c.Close()
	}
}

// componentsDigest runs a six-domain cluster of three components — a star
// (hub 0, leaves 1 and 2) whose members Call each other through the hub, a
// pair (3, 4) trading messages, and domain 5 on its own — and returns the
// merged event log. Every delivery checks that it took exactly one latency.
func componentsDigest(t *testing.T, workers int) string {
	t.Helper()
	const latency = 40 * time.Microsecond
	c := NewCluster(6, latency, workers)
	defer c.Close()
	hub := c.Domain(0)
	hub.Link(c.Domain(1))
	hub.Link(c.Domain(2))
	c.Domain(3).Link(c.Domain(4))
	logs := make([][]string, c.Domains())
	log := func(d *Domain, what string) {
		logs[d.ID()] = append(logs[d.ID()], fmt.Sprintf("%d %d %s", int64(d.Now()), d.ID(), what))
	}
	for i := 0; i < c.Domains(); i++ {
		d := c.Domain(i)
		d.Go("ticker", func(p *Proc) {
			for k := 0; k < 60; k++ {
				p.Sleep(time.Duration(17+5*i) * time.Microsecond)
				log(d, "tick")
			}
		})
	}
	// call is Domain.Call with the transit time of both hops checked.
	call := func(p *Proc, src, dst *Domain, what string, body func(q *Proc)) {
		sent := p.Now()
		var done time.Duration
		src.Call(p, dst, what, func(q *Proc) {
			if q.Now() != sent+latency {
				t.Errorf("%s: request sent at %v arrived at %v", what, sent, q.Now())
			}
			body(q)
			log(dst, what)
			done = q.Now()
		})
		if p.Now() != done+latency {
			t.Errorf("%s: completion sent at %v arrived at %v", what, done, p.Now())
		}
	}
	for _, leaf := range []*Domain{c.Domain(1), c.Domain(2)} {
		other := c.Domain(3 - leaf.ID())
		leaf.Go("leaf", func(p *Proc) {
			for k := 0; k < 8; k++ {
				p.Sleep(time.Duration(60+9*leaf.ID()) * time.Microsecond)
				// Leaf to leaf goes through the hub: there is no direct link.
				call(p, leaf, hub, "relay", func(q *Proc) {
					call(q, hub, other, "serve", func(r *Proc) { r.Sleep(3 * time.Microsecond) })
				})
				log(leaf, "reply")
			}
		})
	}
	var volley func(from, to *Domain, left int)
	volley = func(from, to *Domain, left int) {
		sent := from.Now()
		from.Send(to, func() {
			if to.Now() != sent+latency {
				t.Errorf("volley sent at %v arrived at %v", sent, to.Now())
			}
			log(to, "volley")
			if left > 0 {
				volley(to, from, left-1)
			}
		})
	}
	c.Domain(3).Engine().Schedule(25*time.Microsecond, func() { volley(c.Domain(3), c.Domain(4), 30) })
	c.Run()
	var all []string
	for _, l := range logs {
		all = append(all, l...)
	}
	st := c.Stats()
	return fmt.Sprintf("%s\nevents=%d epochs=%d messages=%d", strings.Join(all, "\n"), c.Events(), st.Epochs, st.Messages)
}

// TestClusterComponentsDeterminism: a cluster of several components — star,
// pair, singleton — produces one event log at every worker count and
// GOMAXPROCS, each component on its own epoch bound.
func TestClusterComponentsDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := componentsDigest(t, 1)
	if !strings.Contains(want, " 2 serve") || !strings.Contains(want, " 4 volley") || !strings.Contains(want, " 5 tick") {
		t.Fatalf("log misses a component's events:\n%.400s", want)
	}
	for _, procs := range []int{1, runtime.NumCPU() + 1} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 4} {
			if got := componentsDigest(t, workers); got != want {
				t.Fatalf("GOMAXPROCS=%d workers=%d: log diverged from the 1-worker baseline\n got: %.300s\nwant: %.300s",
					procs, workers, got, want)
			}
		}
	}
}

// TestClusterLinkBetweenRuns: a Link declared while the cluster is idle
// holds from the next Run on, and one attempted from inside a run panics.
func TestClusterLinkBetweenRuns(t *testing.T) {
	const latency = 10 * time.Microsecond
	c := NewCluster(2, latency, 1)
	defer c.Close()
	a, b := c.Domain(0), c.Domain(1)
	for _, d := range []*Domain{a, b} {
		d.Go("tick", func(p *Proc) {
			for {
				p.Sleep(4 * time.Microsecond)
			}
		})
	}
	c.RunUntil(100 * time.Microsecond)
	if st := c.Stats(); st.Epochs != 1 {
		t.Fatalf("unlinked run took %d epochs, want 1", st.Epochs)
	}
	a.Link(b)
	b.Link(a) // symmetric and idempotent
	var arrived time.Duration
	a.Go("send", func(*Proc) { a.Send(b, func() { arrived = b.Now() }) })
	c.RunUntil(200 * time.Microsecond)
	if arrived != 100*time.Microsecond+latency {
		t.Fatalf("message over the new link arrived at %v, want %v", arrived, 100*time.Microsecond+latency)
	}
	if st := c.Stats(); st.Epochs < 5 {
		t.Fatalf("linked run took %d epochs in all, want one per lookahead window", st.Epochs)
	}
	a.Go("late-link", func(*Proc) { a.Link(b) })
	if msg := mustPanic(t, "Link inside Run", func() { c.RunUntil(300 * time.Microsecond) }); !strings.Contains(msg, "domain 0") || !strings.Contains(msg, "Link called while the cluster is running") {
		t.Fatalf("Link inside Run: %q", msg)
	}
}
