package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"runtime"
	"time"

	"durassd/internal/couch"
	"durassd/internal/crashpoint"
	"durassd/internal/faults"
	"durassd/internal/fio"
	"durassd/internal/host"
	"durassd/internal/innodb"
	"durassd/internal/iotrace"
	"durassd/internal/serve"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/stats"
	"durassd/internal/storage"
	"durassd/internal/workload/linkbench"
	"durassd/internal/workload/ycsb"
)

// workload is one benchmark input. All five are closed loops: a simulated
// client issues its next operation when the previous one completes, in
// virtual time. The seed is the only thing that varies the generated load.
type workload struct {
	name string
	why  string
	// ops is the operations a run of runSeconds attempts; -seconds scales it
	// linearly. The counts were frozen on the 2-core reference host so that
	// the measured phase lands in 4–12 s. Op counts, not deadlines, end a run:
	// the simulated results of a (seed, seconds) pair are then exact and a
	// host-only change must leave sim_digest alone.
	ops int
	// parallel marks the workload that drives a sim.Cluster with e.workers
	// workers; its traced pass adds a 1-worker run to compare with.
	parallel bool
	// run builds the rig, calls e.start() at the first measured operation
	// and returns when the last one has completed — or right away, with a nil
	// result, when start reports a set-up-only round.
	run func(e *env) (*result, error)
}

var workloads = []workload{
	{
		name: "fio-randwrite",
		why:  "device path only (sim.Engine, devfront, core, ftl, nand) in GC steady state, write-only; bypasses engines, serve and sim.Cluster, so a change there must show no change here",
		ops:  1_200_000,
		run:  runFioRandWrite,
	},
	{
		name: "linkbench-innodb",
		why:  "the paper's Figure 5 OFF/OFF 16 KB cell: engine-heavy (buffer pool, WAL group commit, page cleaner) with device reads beside writes; little GC, no serve, no cluster",
		ops:  800_000,
		run:  runLinkBenchInnoDB,
	},
	{
		name: "serve-mixed",
		why:  "serving layer does most of the work (ring, admission with shedding and client retry, TinyLFU cache, GCRA, quorum fan-out, group commit) over 13 domains on the sequential cluster merge",
		ops:  600_000,
		run:  runServeMixed,
	},
	{
		name:     "shards",
		why:      "the only workload where the parallel runtime (workers, epoch barrier, outbox merge) does the work; also the couch engine and the flush-cache path (barriers on)",
		ops:      360_000,
		parallel: true,
		run:      runShards,
	},
	{
		name: "crash-matrix",
		why:  "crashpoint.Matrix's 11 power-cut campaigns, one op per crash point: construction, dump, reboot, recovery and audit dominate, so per-rig memory or set-up cost shows here; also the durability check",
		ops:  11 * 16, // 16 points a campaign
		run:  runCrashMatrix,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// env is what the harness hands a workload for one round: a set-up and,
// unless setupOnly, the measured phase after it.
type env struct {
	seed      int64
	n         int  // operations the measured phase attempts
	workers   int  // sim.Cluster workers for the parallel workload
	traced    bool // decorate devices and record spans
	setupOnly bool // stop at start(): only the set-up is timed

	devs    []*ssd.Device   // every device the round built, in build order
	tdevs   []*tracedDevice // the same devices' decorators when traced
	base    iotrace.Stats   // device counters at start(), summed over devs
	started bool
	begin   time.Time // round entry: set-up starts
	t0      time.Time // start(): measured phase starts
	m0      runtime.MemStats
	ru0     cpuTimes
}

// device builds an SSD on eng and, in a traced round, wraps it so every
// Read/Write/Flush the layers above issue is recorded as a span.
func (e *env) device(eng *sim.Engine, prof ssd.Profile) (storage.Device, error) {
	d, err := ssd.New(eng, prof)
	if err != nil {
		return nil, err
	}
	e.devs = append(e.devs, d)
	if !e.traced {
		return d, nil
	}
	td := &tracedDevice{Device: d, id: len(e.tdevs)}
	e.tdevs = append(e.tdevs, td)
	return td, nil
}

// start ends set-up: everything from here to the workload's return is the
// measured phase. Device counters are snapshotted so set-up traffic does
// not count, and tracing switches on only now for the same reason. It
// reports false in a set-up-only round, and the workload returns.
func (e *env) start() bool {
	e.t0 = time.Now()
	e.started = true
	if e.setupOnly {
		return false
	}
	for _, td := range e.tdevs {
		td.enable()
	}
	e.base = sumStats(e.devs)
	e.ru0 = readCPU()
	runtime.ReadMemStats(&e.m0)
	e.t0 = time.Now()
	return true
}

// result is what a round hands back: the simulated outcome, the checks on
// it, and the workload's own per-layer numbers.
type result struct {
	// completed operations were carried out. failed counts errors, requests
	// shed (ErrOverloaded) or refused (ErrShardUnavailable) and, for
	// crash-matrix, DuraSSD crash points replayed but judged unsafe.
	// fail_share is failed ÷ attempted.
	attempted, completed, failed int64
	// refused is the part of failed that the serving layer turned away by
	// design under overload: it counts against fail_share but is not, like
	// the rest of failed, a failed output check.
	refused int64
	// simOps ÷ simElapsed is sim_ops_per_s, the paper's IOPS/TPS/OPS.
	simOps     int64
	simElapsed time.Duration
	read       stats.Hist // per-op latency by direction, where the driver splits it
	write      stats.Hist
	mixed      stats.Hist // per-op latency of reads and writes the driver does not split
	clients    []string   // name prefixes of the simulated processes that issue the operations
	userBytes  int64      // bytes the workload asked to write (0 = not observable)
	events     uint64     // engine events processed (0 = not observable)
	layer      map[string]float64
	problems   []string  // failed output checks
	digest     hash.Hash // sim_digest: simulated results and device counters
}

func newResult() *result {
	return &result{layer: map[string]float64{}, digest: sha256.New()}
}

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// hashf folds one line of simulated output into sim_digest.
func (r *result) hashf(format string, args ...any) {
	fmt.Fprintf(r.digest, format+"\n", args...)
}

func (r *result) hashHist(name string, h *stats.Hist) {
	r.hashf("%s count=%d sum=%d min=%d max=%d p50=%d p99=%d", name,
		h.Count(), h.Sum(), h.Min(), h.Max(), h.Percentile(50), h.Percentile(99))
}

// hashDevices folds every device's cumulative counters into sim_digest.
func (r *result) hashDevices(e *env) {
	for i, d := range e.devs {
		r.hashf("dev%d %+v", i, *d.Stats())
	}
}

// fioThreads is the client count of every fio job here. The issue asks for
// four; one, because two concurrent writers on a saturated durable cache can
// panic the device model at the parent commit ("core: no clean frame to
// evict": a command admitted while its LPN was cached clean finds the frame
// evicted by a neighbour during its DRAM transfer, with every other frame
// dirty). With four threads and 1.2 M writes that ends the process at seeds
// 1, 3 and 4 of the first ten, and shards (2 x 120 k writes) at seed 18 of
// the first 24; a benchmark has to run at every seed. A
// single closed-loop writer cannot hit it, and the device is GC-bound either
// way (4 560 simulated IOPS with one thread or four). Concurrent writers on
// one device remain in linkbench-innodb (128 clients) and in the YCSB half
// of shards.
const fioThreads = 1

// fioFile builds a DuraSSD(16) on eng behind a host.FS with barriers off and
// preloads a file over 90 % of it.
func fioFile(e *env, eng *sim.Engine, name string) (*host.File, error) {
	dev, err := e.device(eng, ssd.DuraSSD(16))
	if err != nil {
		return nil, err
	}
	pages := dev.Pages() * 9 / 10
	file, err := host.NewFS(dev, false).Create(name, pages)
	if err != nil {
		return nil, err
	}
	return file, file.Preload(0, pages, nil)
}

// fioWrites starts a write-only fio job on file: 4 KB uniform random
// writes from fioThreads clients, no fsync.
func fioWrites(eng *sim.Engine, file *host.File, ops int, seed int64) (*fio.Pending, error) {
	return fio.Start(eng, file, fio.Job{Name: file.Name(), Threads: fioThreads, ReadPct: 0, Ops: ops, Seed: seed})
}

// fio-randwrite: one preloaded DuraSSD(16) under one fio job. The preload
// leaves the device full enough that garbage collection starts within the
// first percent of the measured writes.
func runFioRandWrite(e *env) (*result, error) {
	eng := sim.New()
	file, err := fioFile(e, eng, "randwrite")
	if err != nil {
		return nil, err
	}
	ops := max(e.n/fioThreads, 1) * fioThreads
	pd, err := fioWrites(eng, file, ops, e.seed)
	if err != nil {
		return nil, err
	}
	if !e.start() {
		return nil, nil
	}
	eng.Run()
	res, err := pd.Result()
	if err != nil {
		return nil, err
	}
	r := newResult()
	r.attempted, r.completed = int64(ops), res.Ops
	r.failed = r.attempted - r.completed
	r.simOps, r.simElapsed = res.Ops, res.Elapsed
	r.write = res.WriteLat
	r.clients = []string{"fio-"}
	r.userBytes = res.Ops * int64(e.devs[0].PageSize())
	r.events = eng.Events()
	r.hashf("fio ops=%d elapsed=%d", res.Ops, res.Elapsed)
	r.hashHist("write", &res.WriteLat)
	r.hashDevices(e)
	return r, nil
}

// linkbench-innodb assembles Figure 5's OFF/OFF 16 KB cell from public
// constructors the way repro.RunLinkBench does: data on DuraSSD(2), redo
// log on DuraSSD(16), barriers off, no double-write buffer, database ≫
// buffer pool, 128 clients, and repro's default warm-up (two requests per
// pool frame, at least a quarter of the measured requests) inside set-up.
func runLinkBenchInnoDB(e *env) (*result, error) {
	const (
		scale       = 256
		clients     = 128
		pageBytes   = 16 * storage.KB
		bufferBytes = 10 * storage.GB / scale
	)
	eng := sim.New()
	dataDev, err := e.device(eng, ssd.DuraSSD(2))
	if err != nil {
		return nil, err
	}
	logDev, err := e.device(eng, ssd.DuraSSD(16))
	if err != nil {
		return nil, err
	}
	dataFS, logFS := host.NewFS(dataDev, false), host.NewFS(logDev, false)
	db, err := innodb.Open(eng, dataFS, logFS, innodb.Config{
		PageBytes:    pageBytes,
		BufferBytes:  bufferBytes,
		DataPages:    dataDev.Pages() * int64(dataDev.PageSize()) / pageBytes * 9 / 10,
		LogFilePages: logDev.Pages() / 4,
		LogFiles:     3,
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	requests := max(e.n/clients, 1) * clients
	warmup := max(2*bufferBytes/pageBytes, requests/4) / clients * clients
	if e.setupOnly {
		requests = clients // OnMeasureStart cannot stop the run: make it end at once
	}
	// Host pages written so far by origin: data, redo log, double-write buffer.
	originPages := func() [3]int64 {
		return [3]int64{
			dataDev.Registry().Origin(iotrace.OriginData).PagesWritten,
			logDev.Registry().Origin(iotrace.OriginRedo).PagesWritten,
			dataDev.Registry().Origin(iotrace.OriginDoubleWrite).PagesWritten,
		}
	}
	var pool0 poolCounters
	var wal0, commits0 int64
	var pages0 [3]int64
	b, err := linkbench.Setup(eng, db, linkbench.Config{
		Nodes:    54_000_000 / scale,
		Clients:  clients,
		Requests: requests,
		Warmup:   warmup,
		Seed:     e.seed,
		OnMeasureStart: func() {
			pool0, wal0, commits0, pages0 = readPool(db), db.Log().Flushes, db.Commits, originPages()
			e.start()
		},
	})
	if err != nil {
		return nil, err
	}
	res, err := b.Run(eng)
	if err != nil || e.setupOnly {
		return nil, err
	}
	r := newResult()
	r.attempted, r.completed = int64(requests), res.Requests
	r.failed = r.attempted - r.completed
	r.simOps, r.simElapsed = res.Requests, res.Elapsed
	r.clients = []string{"lb-client-"}
	r.events = eng.Events()
	r.hashf("linkbench requests=%d elapsed=%d miss=%v", res.Requests, res.Elapsed, res.MissRatio)
	// Row bytes each write request asks the database to change (the
	// linkbench schema footprints: node 300, link 150, count 50).
	rowBytes := map[linkbench.OpType]int64{
		linkbench.AddNode: 300, linkbench.DeleteNode: 350, linkbench.UpdateNode: 300,
		linkbench.AddLink: 200, linkbench.DeleteLink: 200, linkbench.UpdateLink: 150,
	}
	for _, op := range linkbench.OpTypes() {
		h := res.Hist(op)
		r.hashHist(op.String(), h)
		if op.IsWrite() {
			r.write.Merge(h)
			r.userBytes += h.Count() * rowBytes[op]
		} else {
			r.read.Merge(h)
		}
	}
	r.hashDevices(e)

	pool := readPool(db)
	walFlushes := db.Log().Flushes - wal0
	r.layer["innodb.pool_miss_ratio"] = res.MissRatio
	r.layer["innodb.dirty_evictions"] = float64(pool.dirtyEvictions - pool0.dirtyEvictions)
	r.layer["innodb.cleaner_flushes"] = float64(pool.cleanerFlushes - pool0.cleanerFlushes)
	r.layer["innodb.wal_flushes"] = float64(walFlushes)
	r.layer["innodb.commits_per_wal_flush"] = ratio(float64(db.Commits-commits0), float64(walFlushes))
	pages := originPages()
	r.layer["innodb.data_pages_written"] = float64(pages[0] - pages0[0])
	r.layer["innodb.redo_pages_written"] = float64(pages[1] - pages0[1])
	r.layer["innodb.dwb_pages_written"] = float64(pages[2] - pages0[2])
	return r, nil
}

type poolCounters struct{ dirtyEvictions, cleanerFlushes int64 }

func readPool(db *innodb.Engine) poolCounters {
	st := db.Pool().Stats()
	return poolCounters{st.DirtyEvictions, st.CleanerFlushes}
}

// serve-mixed: serve.RunScenario with 4 shard groups × 3 replicas on one
// worker (the sequential merge), the default three tenants scaled up, the
// gateway at the scenario's defaults — admission is deliberately shallow
// there, so a few requests in a thousand are shed, most succeed on a client
// retry, and the few given up on count as failed. The scenario builds its box inside the call,
// so set-up cannot be timed apart: it is the same call with one operation
// per client process.
func runServeMixed(e *env) (*result, error) {
	cfg := serve.ScenarioConfig{Shards: 4, Replicas: 3, Workers: 1, Seed: e.seed, Tenants: serve.DefaultTenants()}
	small := cfg
	small.Tenants = serve.DefaultTenants()
	var unit int
	for i, t := range cfg.Tenants {
		unit += t.Ops
		small.Tenants[i].Ops = t.Threads
	}
	k := max(e.n/unit, 1)
	attempted := make([]int64, len(cfg.Tenants))
	for i := range cfg.Tenants {
		t := &cfg.Tenants[i]
		t.Ops *= k
		attempted[i] = int64(t.Ops / t.Threads * t.Threads)
	}
	if _, err := serve.RunScenario(small); err != nil {
		return nil, fmt.Errorf("set-up scenario: %w", err)
	}
	if !e.start() {
		return nil, nil
	}
	res, err := serve.RunScenario(cfg)
	if err != nil {
		return nil, err
	}
	r := newResult()
	r.events = res.Events
	r.simElapsed = res.Elapsed
	r.hashf("serve elapsed=%d iotrace=%s robust=%+v shed=%v cache=%d", res.Elapsed, res.Digest, res.Robust, res.ShedByShard, res.CacheHits)
	var shed, retried, throttled, bloom, unavailable int64
	var throttleWait time.Duration
	for i, t := range res.Tenants {
		r.hashf("tenant %+v", t)
		if i >= len(attempted) {
			continue // chaos noise accounts: none without a ChaosSpec
		}
		r.attempted += attempted[i]
		r.completed += t.Ops
		// Shed counts every ErrOverloaded answer and Retried the ones a client
		// tried again, so the difference is the requests given up on.
		refused := t.Shed - t.Retried + t.Unavailable
		r.refused += refused
		if t.Ops+refused != attempted[i] {
			r.problemf("tenant %s: ops %d + shed %d - retried %d + unavailable %d != attempted %d", t.Name, t.Ops, t.Shed, t.Retried, t.Unavailable, attempted[i])
		}
		shed, retried, throttled, bloom = shed+t.Shed, retried+t.Retried, throttled+t.Throttled, bloom+t.BloomSkips
		unavailable, throttleWait = unavailable+t.Unavailable, throttleWait+t.ThrottleT
		r.layer["serve."+t.Name+".read_p99_us"] = us(t.ReadP99)
		r.layer["serve."+t.Name+".write_p99_us"] = us(t.WriteP99)
	}
	r.failed = r.attempted - r.completed
	r.simOps = r.completed
	r.layer["serve.events_per_op"] = ratio(float64(res.Events), float64(r.completed))
	r.layer["serve.cache_hit_ratio"] = res.CacheRatio
	r.layer["serve.bloom_skips"] = float64(bloom)
	r.layer["serve.shed"] = float64(shed)
	r.layer["serve.retried"] = float64(retried)
	r.layer["serve.throttled"] = float64(throttled)
	r.layer["serve.throttle_wait_ms"] = float64(throttleWait) / float64(time.Millisecond)
	r.layer["serve.hedges"] = float64(res.Robust.Hedges)
	r.layer["serve.deadlines"] = float64(res.Robust.Deadlines)
	r.layer["serve.rpc_retries"] = float64(res.Robust.Retries)
	r.layer["serve.unavailable"] = float64(unavailable)
	r.layer["serve.stale_reads"] = float64(res.Robust.StaleReads)
	return r, nil
}

// shards is the simbench shards program: a 4-domain sim.Cluster with a
// 250 µs link, domains 0–1 running fio 4 KB random writes (DuraSSD(16),
// barriers off) and domains 2–3 YCSB-A 50/50 on a couch store
// (4000 docs, batch 100, 2 threads, DuraSSD(32), barriers on). A third of
// the operations go to each fio domain and a sixth to each YCSB domain.
func runShards(e *env) (*result, error) {
	const (
		domains     = 4
		latency     = 250 * time.Microsecond
		docs        = 4000
		docBytes    = 1 * storage.KB
		ycsbThreads = 2
	)
	c := sim.NewCluster(domains, latency, e.workers)
	defer c.Close()
	var files []*host.File
	var stores []*couch.Store
	for i := 0; i < domains; i++ {
		eng := c.Domain(i).Engine()
		if i < 2 {
			file, err := fioFile(e, eng, fmt.Sprintf("shard%d", i))
			if err != nil {
				return nil, err
			}
			files = append(files, file)
			continue
		}
		dev, err := e.device(eng, ssd.DuraSSD(32))
		if err != nil {
			return nil, err
		}
		st, err := couch.Open(eng, host.NewFS(dev, true), couch.Config{Docs: docs, DocBytes: docBytes, BatchSize: 100})
		if err != nil {
			return nil, err
		}
		stores = append(stores, st)
	}
	// One job per domain: fioOps writes on domains 0–1, half as many YCSB
	// operations on domains 2–3. A multiple of 2 × ycsbThreads, so the YCSB
	// half divides over its threads.
	fioOps := max(e.n/3/(2*ycsbThreads), 1) * 2 * ycsbThreads
	var jobs shardJobs
	for i := 0; i < domains; i++ {
		eng, seed := c.Domain(i).Engine(), e.seed+int64(i)*1_000_003
		if i < 2 {
			pd, err := fioWrites(eng, files[i], fioOps, seed)
			if err != nil {
				return nil, err
			}
			jobs.fios = append(jobs.fios, pd)
			continue
		}
		jobs.ycsbs = append(jobs.ycsbs, ycsb.Start(eng, stores[i-2], docs, ycsb.Config{Operations: fioOps / 2, UpdatePct: 50, Threads: ycsbThreads, Seed: seed}))
	}
	journal := func(i int) int64 { return e.devs[i+2].Registry().Origin(iotrace.OriginJournal).PagesWritten }
	journal0, fsyncs0 := []int64{journal(0), journal(1)}, []int64{stores[0].Fsyncs(), stores[1].Fsyncs()}
	if !e.start() {
		return nil, nil
	}
	c.Run()
	fioRes, ycsbRes, err := jobs.results()
	if err != nil {
		return nil, err
	}

	r := newResult()
	r.attempted = int64(2*fioOps + 2*(fioOps/2))
	r.clients = []string{"fio-", "ycsb-"}
	r.events = c.Events()
	for i, res := range fioRes {
		r.completed += res.Ops
		r.simElapsed = max(r.simElapsed, res.Elapsed)
		r.write.Merge(&res.WriteLat)
		r.userBytes += res.Ops * int64(e.devs[i].PageSize())
		r.hashf("fio%d ops=%d elapsed=%d", i, res.Ops, res.Elapsed)
		r.hashHist("write", &res.WriteLat)
	}
	for i, res := range ycsbRes {
		r.completed += res.Ops
		r.simElapsed = max(r.simElapsed, res.Elapsed)
		r.mixed.Merge(&res.Lat)
		st, pages := stores[i], journal(i)-journal0[i]
		updates := pages * int64(e.devs[i+2].PageSize()) / int64(st.UpdateBytes())
		r.userBytes += updates * docBytes
		r.layer["couch.fsyncs"] += float64(st.Fsyncs() - fsyncs0[i])
		r.layer["couch.tree_depth"] = float64(st.Depth())
		r.layer["couch.journal_pages_written"] += float64(pages)
		r.hashf("ycsb%d ops=%d elapsed=%d fsyncs=%d", i, res.Ops, res.Elapsed, st.Fsyncs())
		r.hashHist("op", &res.Lat)
	}
	r.failed = r.attempted - r.completed
	r.simOps = r.completed
	r.layer["couch.op_p50_us"] = us(r.mixed.Percentile(50))
	r.layer["couch.op_p99_us"] = us(r.mixed.Percentile(99))
	var most, total uint64
	for i := 0; i < domains; i++ {
		ev := c.Domain(i).Engine().Events()
		most, total = max(most, ev), total+ev
	}
	r.layer["cluster.domain_event_imbalance"] = ratio(float64(most)*domains, float64(total))
	r.hashDevices(e)
	return r, nil
}

// shardJobs is one started job per shards domain.
type shardJobs struct {
	fios  []*fio.Pending
	ycsbs []*ycsb.Pending
}

// results collects the jobs' outcomes once the cluster has run.
func (j shardJobs) results() ([]fio.Result, []*ycsb.Result, error) {
	var fr []fio.Result
	var yr []*ycsb.Result
	for i, pd := range j.fios {
		res, err := pd.Result()
		if err != nil {
			return nil, nil, fmt.Errorf("fio shard %d: %w", i, err)
		}
		fr = append(fr, res)
	}
	for i, pd := range j.ycsbs {
		res, err := pd.Result()
		if err != nil {
			return nil, nil, fmt.Errorf("ycsb shard %d: %w", i+2, err)
		}
		yr = append(yr, res)
	}
	return fr, yr, nil
}

// crash-matrix explores crashpoint.Matrix, all eleven campaigns: each is a
// probe run plus one full replay per crash point with power cut, dump,
// reboot, recovery and audit. One operation is one crash point; a DuraSSD
// point judged unsafe is a failed operation and a failed output check. The
// package builds every rig inside Explore, so set-up is only the time to the
// first Explore call.
func runCrashMatrix(e *env) (*result, error) {
	const (
		updates = 240
		// Below four points a campaign keeps only the last cut of each kind,
		// by when a volatile control has drained its cache and loses nothing.
		minPoints = 4
	)
	campaigns := crashpoint.Matrix(max(e.n/11, minPoints), updates, e.seed)
	if !e.start() {
		return nil, nil
	}
	r := newResult()
	kinds := (&crashpoint.Result{}).KindCounts() // zero tally, sized by the package
	var slowest time.Duration
	var lost, torn, volLost, unsafe, replayed int
	var dumpPages int64
	for _, c := range campaigns {
		t := time.Now()
		res, err := crashpoint.Explore(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name(), err)
		}
		slowest = max(slowest, time.Since(t))
		r.hashf("campaign %q schedule=%s unsafe=%d lost=%d torn=%d vollost=%d voltorn=%d",
			res.Name, res.Digest, res.Unsafe, res.Lost, res.Torn, res.VolatileLost, res.VolatileTorn)
		for k, n := range res.KindCounts() {
			kinds[k] += n
		}
		for _, o := range res.Outcomes {
			r.hashf("%s@%d acked=%d lost=%d torn=%d", o.Point.Kind, o.Point.At, o.Verdict.AckedCommits, o.Verdict.LostCommits, o.Verdict.TornPages)
			r.simOps += int64(o.Verdict.AckedCommits)
			r.simElapsed += o.Point.At
			dumpPages += o.Verdict.DumpPages
			if o.Verdict.Err != nil {
				r.problemf("%s %s at %v: %v", res.Name, o.Point.Kind, o.Point.At, o.Verdict.Err)
			}
		}
		r.attempted += int64(len(res.Points))
		replayed += len(res.Outcomes)

		// The volatile-cache controls must lose something: a control that
		// loses nothing means the cut did not happen. An engine control (SSD-A
		// in the fast configuration) is unsafe as a whole; a serving control
		// tallies its volatile members' loss apart and must otherwise be safe.
		engineControl := c.Burst == nil && c.Replica == nil && c.Scenario.Device == faults.SSDA && !c.Scenario.Barrier
		servingControl := (c.Burst != nil && len(c.Burst.Volatile) > 0) || (c.Replica != nil && c.Replica.Volatile)
		controlLoss := res.VolatileLost
		if engineControl {
			controlLoss = res.Lost + res.Torn
		}
		if (engineControl || servingControl) && controlLoss == 0 {
			r.problemf("%s: volatile control lost nothing", res.Name)
		}
		volLost += controlLoss
		if !engineControl {
			lost, torn = lost+res.Lost, torn+res.Torn
			unsafe += res.Unsafe
			if res.Unsafe > 0 {
				r.problemf("%s: %d unsafe crash points", res.Name, res.Unsafe)
			}
		}
	}
	if int64(replayed) != r.attempted {
		r.problemf("replayed %d of %d crash points", replayed, r.attempted)
	}
	r.completed = int64(replayed)
	r.failed = r.attempted - r.completed + int64(unsafe)
	r.layer["crash.points"] = float64(replayed)
	r.layer["core.dump_pages"] = float64(dumpPages)
	for k, n := range kinds {
		r.layer["crash.points."+crashpoint.Kind(k).String()] = float64(n)
	}
	r.layer["crash.unsafe"] = float64(unsafe)
	r.layer["crash.lost"] = float64(lost)
	r.layer["crash.torn"] = float64(torn)
	r.layer["crash.vol_lost"] = float64(volLost)
	r.layer["crash.slowest_campaign_s"] = slowest.Seconds()
	// What one crash point costs the host: every replay builds, cuts, reboots
	// and audits a whole rig, and at the parent commit leaks it.
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	points, mib := float64(replayed), float64(1<<20)
	r.layer["crash.host_ms_per_point"] = ratio(float64(time.Since(e.t0))/float64(time.Millisecond), points)
	r.layer["crash.alloc_mb_per_point"] = ratio(float64(m1.TotalAlloc-e.m0.TotalAlloc)/mib, points)
	r.layer["crash.heap_growth_mb_per_point"] = ratio((float64(m1.HeapSys)-float64(e.m0.HeapSys))/mib, points)
	return r, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
