package main

import (
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/sim"
)

// sample is one measured round: the workload's result plus what the host
// spent on it.
type sample struct {
	res        *result
	devStats   iotrace.Stats // device counters of the measured phase
	devices    int           // devices the round built through env.device
	tdevs      []*tracedDevice
	nandPage   int           // NAND page bytes of the round's devices
	setup      time.Duration // round entry → start()
	wall       time.Duration // start() → workload return
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	heapSys    uint64 // MemStats.HeapSys at the end of the round
	cpu        cpuTimes
}

func (s *sample) digest() string { return hex.EncodeToString(s.res.digest.Sum(nil)) }

// cpuTimes is the process's CPU consumption so far.
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) total() time.Duration { return c.user + c.sys }

func readRusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func readCPU() cpuTimes {
	ru := readRusage()
	return cpuTimes{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
}

// peakRSSMiB is the process's high-water resident set (Linux: ru_maxrss is
// in KiB).
func peakRSSMiB() float64 { return float64(readRusage().Maxrss) / 1024 }

// sizeOf returns the operations w attempts in a run of the given measured
// length.
func sizeOf(w *workload, seconds float64) int {
	return max(int(float64(w.ops)*seconds/runSeconds), 1)
}

// clusterWorkers is the worker count of the parallel workload.
func clusterWorkers() int { return min(4, runtime.NumCPU()) }

// measure runs one round of w as e describes it. Of a set-up-only round
// only sample.setup is filled.
func measure(w *workload, e env) (*sample, error) {
	runtime.GC() // the round's allocation delta and heap growth are its own
	e.begin = time.Now()
	res, err := w.run(&e)
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if !e.started {
		return nil, fmt.Errorf("%s: returned without starting its measured phase", w.name)
	}
	if e.setupOnly {
		return &sample{setup: e.t0.Sub(e.begin)}, nil
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	cpu := readCPU()
	s := &sample{
		res:        res,
		devStats:   sumStats(e.devs),
		devices:    len(e.devs),
		tdevs:      e.tdevs,
		setup:      e.t0.Sub(e.begin),
		wall:       end.Sub(e.t0),
		mallocs:    m1.Mallocs - e.m0.Mallocs,
		allocBytes: m1.TotalAlloc - e.m0.TotalAlloc,
		gcCycles:   m1.NumGC - e.m0.NumGC,
		gcPause:    time.Duration(m1.PauseTotalNs - e.m0.PauseTotalNs),
		heapSys:    m1.HeapSys,
		cpu:        cpuTimes{user: cpu.user - e.ru0.user, sys: cpu.sys - e.ru0.sys},
	}
	addStats(&s.devStats, &e.base, -1)
	if len(e.devs) > 0 {
		s.nandPage = e.devs[0].Profile().NAND.PageSize // every profile here has the same NAND geometry
	}
	if hard := res.failed - res.refused; hard > 0 {
		res.problemf("%d of %d operations failed", hard, res.attempted)
	}
	return s, nil
}

// outcome is one run, in the shape the driver reads from the last line.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	digest      string
	problems    []string
	unavailable []string // declared metrics this workload cannot observe
}

// newOutcome starts the outcome of a run from its first sample. The driver
// wants workloads on which no operation fails, so its failed carries the
// operations that broke; the requests a gateway refused by design under
// overload are measured, and gated, as fail_share and ok_share.
func newOutcome(s *sample) *outcome {
	return &outcome{
		Attempted: s.res.attempted,
		Failed:    s.res.failed - s.res.refused,
		digest:    s.digest(),
		problems:  s.res.problems,
	}
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) finish(decl []metric, m map[string]float64) {
	o.Metrics, o.unavailable = values(decl, m)
	o.Correct = len(o.problems) == 0
}

// timedRun is the untraced run: one set-up and one measured phase, in a
// process that has done nothing else. The set-up is then repeated on rigs
// that are thrown away, so that setup_s is a median; the peak resident set
// is read before that.
func timedRun(w *workload, seed int64, seconds float64) (*outcome, error) {
	e := env{seed: seed, n: sizeOf(w, seconds), workers: clusterWorkers()}
	s, err := measure(w, e)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMiB()
	setups := []float64{s.setup.Seconds()}
	e.setupOnly = true
	for len(setups) < setupReps {
		extra, err := measure(w, e)
		if err != nil {
			return nil, err
		}
		setups = append(setups, extra.setup.Seconds())
	}
	o := newOutcome(s)
	ops := float64(s.res.completed)
	o.finish(endToEnd, map[string]float64{
		"setup_s":                 median(setups),
		"host_ops_per_s":          ratio(ops, s.wall.Seconds()),
		"host_allocs_per_op":      ratio(float64(s.mallocs), ops),
		"host_alloc_bytes_per_op": ratio(float64(s.allocBytes), ops),
		"host_peak_rss_mb":        rss,
		"sim_ops_per_s":           s.simOpsPerSecond(),
		"ok_share":                1 - s.failShare(),
	})
	return o, nil
}

func (s *sample) simOpsPerSecond() float64 {
	return ratio(float64(s.res.simOps), s.res.simElapsed.Seconds())
}

func (s *sample) failShare() float64 {
	return ratio(float64(s.res.failed), float64(s.res.attempted))
}

// tracedRun is the per-layer pass: one untraced run for the host-side
// numbers and the simulated results, then the same run with every device
// decorated and iotrace switched on for the layer times and counters. The
// traced run must reproduce the untraced sim_digest. Workloads that build
// their devices inside the package they drive (serve-mixed, crash-matrix)
// have nothing to decorate: they make the first run only and list the
// device-side metrics as unavailable. A parallel workload adds a 1-worker
// run: the sequential merge must give the same digest as the parallel one.
func tracedRun(w *workload, seed int64, seconds float64, traceOut string) (*outcome, error) {
	e := env{seed: seed, n: sizeOf(w, seconds), workers: clusterWorkers()}
	plain, err := measure(w, e)
	if err != nil {
		return nil, err
	}
	o := newOutcome(plain)
	m := map[string]float64{}
	res, ops := plain.res, float64(plain.res.completed)
	for k, v := range res.layer {
		m[k] = v
	}
	if res.read.Count() >= 1000 {
		m["sim_read_p50_us"], m["sim_read_p99_us"] = us(res.read.Percentile(50)), us(res.read.Percentile(99))
	}
	if res.write.Count() >= 1000 {
		m["sim_write_p50_us"], m["sim_write_p99_us"] = us(res.write.Percentile(50)), us(res.write.Percentile(99))
	}
	if plain.devices > 0 && res.userBytes > 0 {
		m["sim_nand_bytes_per_user_byte"] = ratio(float64(plain.devStats.NANDPrograms)*float64(plain.nandPage), float64(res.userBytes))
	}
	m["fail_share"] = plain.failShare()
	m["sim.events"] = float64(res.events)
	m["sim.events_per_op"] = ratio(float64(res.events), ops)
	m["sim.host_ns_per_event"] = ratio(float64(plain.wall.Nanoseconds()), float64(res.events))
	m["sim.bare_ns_per_event"] = bareEngineNsPerEvent()
	m["rt.gc_cycles"] = float64(plain.gcCycles)
	m["rt.gc_pause_total_ms"] = float64(plain.gcPause) / float64(time.Millisecond)
	m["rt.heap_sys_mb_end"] = float64(plain.heapSys) / (1 << 20)
	m["rt.cpu_s"] = plain.cpu.total().Seconds()
	m["rt.sys_cpu_share"] = ratio(plain.cpu.sys.Seconds(), plain.cpu.total().Seconds())
	if w.parallel {
		e.workers = 1
		seq, err := measure(w, e)
		if err != nil {
			return nil, err
		}
		e.workers = clusterWorkers()
		if seq.digest() != o.digest {
			o.problemf("1-worker sim_digest %s differs from the %d-worker digest %s", seq.digest(), e.workers, o.digest)
		}
		m["cluster.par_host_s"] = plain.wall.Seconds()
		m["cluster.seq_host_s"] = seq.wall.Seconds()
		m["cluster.par_speedup"] = ratio(seq.wall.Seconds(), plain.wall.Seconds())
		m["cluster.cpu_s_per_wall_s"] = ratio(plain.cpu.total().Seconds(), plain.wall.Seconds())
		m["cluster.sys_cpu_share"] = m["rt.sys_cpu_share"]
	}
	if plain.devices > 0 {
		e.traced = true
		tr, err := measure(w, e)
		if err != nil {
			return nil, err
		}
		if tr.digest() != o.digest {
			o.problemf("traced sim_digest %s differs from the untraced digest %s", tr.digest(), o.digest)
		}
		m["trace.overhead_ratio"] = ratio(tr.wall.Seconds(), plain.wall.Seconds())
		deviceLayers(m, tr)
		if traceOut != "" {
			if err := writeSpans(traceOut, tr.tdevs); err != nil {
				return nil, err
			}
		}
	}
	o.finish(perLayer, m)
	return o, nil
}

// deviceLayers fills the device-side per-layer metrics from a traced round:
// counters of the measured phase, and each iotrace layer's exclusive
// virtual time per workload operation (foreground and background requests
// together, so the columns add up to the device time one operation costs).
func deviceLayers(m map[string]float64, tr *sample) {
	st, res := &tr.devStats, tr.res
	ops := float64(res.completed)
	var layer [iotrace.NumLayers]time.Duration
	var all, clientCalls time.Duration
	var spans int
	for _, d := range tr.tdevs {
		for l := range layer {
			t := d.layerTime(iotrace.Layer(l))
			layer[l] += t
			all += t
		}
		clientCalls += d.callTime(res.clients)
		spans += len(d.spans)
	}
	perOp := func(d time.Duration) float64 { return ratio(us(d), ops) }

	m["trace.spans"] = float64(spans)
	m["devfront.write_cmds"] = float64(st.WriteCommands)
	m["devfront.read_cmds"] = float64(st.ReadCommands)
	m["devfront.flush_cmds"] = float64(st.FlushCommands)
	m["devfront.queue_wait_us"] = perOp(layer[iotrace.LayerHostQueue])
	m["devfront.link_us"] = perOp(layer[iotrace.LayerLink])
	m["devfront.flush_drain_us"] = perOp(layer[iotrace.LayerFlushDrain])
	m["core.firmware_us"] = perOp(layer[iotrace.LayerFirmware])
	m["core.cache_us"] = perOp(layer[iotrace.LayerCache])
	m["core.cache_hits"] = float64(st.CacheHits)
	m["core.read_hit_ratio"] = ratio(float64(st.CacheHits), float64(st.PagesRead))
	m["core.cache_evicts"] = float64(st.CacheEvicts)
	m["core.coalesce_ratio"] = ratio(float64(st.CacheOverlaps), float64(st.PagesWritten))
	m["core.dump_pages"] = float64(st.DumpPages)
	m["core.recoveries"] = float64(st.Recoveries)
	m["ftl.self_us"] = perOp(layer[iotrace.LayerFTL])
	m["ftl.gc_us"] = perOp(layer[iotrace.LayerGC])
	m["ftl.write_amp"] = st.WriteAmplification()
	m["ftl.gc_programs"] = float64(st.GCPrograms)
	m["ftl.gc_share"] = ratio(float64(st.GCPrograms), float64(st.NANDPrograms))
	m["ftl.map_flush_pages"] = float64(st.MapFlushPages)
	m["nand.programs"] = float64(st.NANDPrograms)
	m["nand.reads"] = float64(st.NANDReads)
	m["nand.erases"] = float64(st.NANDErases)
	m["nand.busy_us"] = perOp(layer[iotrace.LayerNAND])
	m["nand.busy_share"] = ratio(float64(layer[iotrace.LayerNAND]), float64(all))
	m["host.dev_cmds_per_op"] = ratio(float64(st.ReadCommands+st.WriteCommands+st.FlushCommands), ops)
	m["host.flushes_per_op"] = ratio(float64(st.FlushCommands), ops)
	// What an operation spends above the device boundary (engine, host.FS,
	// modelled CPU, waiting for a group commit someone else writes): its mean
	// latency minus the time its own client process spent inside device calls.
	if lat := res.read.Count() + res.write.Count() + res.mixed.Count(); lat > 0 {
		mean := float64(res.read.Sum()+res.write.Sum()+res.mixed.Sum()) / float64(lat)
		m["host.above_device_us"] = (mean - float64(clientCalls)/ops) / float64(time.Microsecond)
	}
}

// bareEngineNsPerEvent is the scheduler floor: 2 M events on an otherwise
// empty sim.Engine, half process wake-ups (64 processes in Sleep) and half
// Schedule timers.
func bareEngineNsPerEvent() float64 {
	const procs, events = 64, 2_000_000
	eng := sim.New()
	for i := 0; i < procs; i++ {
		eng.Go(fmt.Sprintf("sleeper-%d", i), func(p *sim.Proc) {
			for j := 0; j < events/procs/2; j++ {
				eng.Schedule(time.Microsecond, func() {})
				p.Sleep(time.Microsecond)
			}
		})
	}
	start := time.Now()
	eng.Run()
	return ratio(float64(time.Since(start).Nanoseconds()), float64(eng.Events()))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}
