package main

// metric declares one reported number. The tables below are the single
// source of the benchmark's metric names: BENCHMARK.json at the repo root
// repeats them for the driver, and bench_test.go fails when the two drift.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening as a share of the parent's median
}

// runSeconds is BENCHMARK.json's run_seconds: at this -seconds every
// workload attempts exactly its reference operation count (workload.ops).
const runSeconds = 8

// setupReps is how many times a timed run sets its workload up: once for
// the measured phase and then, after it, on rigs it throws away. setup_s is
// the median.
const setupReps = 3

// endToEnd is what the driver gates on: every workload reports every one of
// them on every run and none is ever zero. host_* is the wall clock and
// memory of the simulator, sim_* the virtual time of the modelled hardware.
// ok_share is 1 − fail_share: a share that is 0 on a healthy run has no
// relative bound, its complement does, and 0.1 % of ≈1 is the issue's
// +0.001 absolute. The other end-to-end metrics exist on some workloads
// only, which the driver's end_to_end list does not allow; they head
// perLayer under their own names and -compare gates them all the same.
//
// The driver compares runs of different seeds, so these bounds have to cover
// what a change of seed does on the widest workload. Over ten seeds on the
// 2-core reference host the quartile distance ÷ median reached 13.9 %
// (host_ops_per_s, shards), 13.8 % (host_peak_rss_mb, serve-mixed: where the
// collector's cycles land in a 450 MiB heap), 12.1 % (sim_ops_per_s, shards:
// its two fio domains write 120 000 pages each, too few to leave the seed-
// dependent onset of garbage collection behind; four times as many still
// spread 10 %) and 0.7 % (allocation metrics). That is wider than the issue's
// cap of a tenth. -compare judges same-seed reports by sameSeed below.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "host_allocs_per_op", Unit: "allocs/op", Better: "lower", Bound: 0.02},
	{Name: "host_alloc_bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.02},
	{Name: "host_peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "sim_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "ok_share", Unit: "ratio", Better: "higher", Bound: 0.001},
}

// sameSeed is the issue's bound on each end-to-end metric, for -compare:
// two reports of one seed, where the simulated numbers are exact and the
// allocation counts nearly so.
var sameSeed = map[string]float64{
	"setup_s":                 0.15,
	"host_ops_per_s":          0.07,
	"host_allocs_per_op":      0.01,
	"host_alloc_bytes_per_op": 0.01,
	"host_peak_rss_mb":        0.10,
	"sim_ops_per_s":           0.01,
	"ok_share":                0.001,
}

// perLayer is the traced pass. A workload reports the metrics it can
// observe; the rest it lists as unavailable (README.md says which and why).
var perLayer = []metric{
	// Simulated end-to-end results that not every workload has: percentiles
	// need at least 1000 samples of that direction from the driver's
	// histogram, the NAND ratio needs the devices' counters.
	{Name: "sim_read_p50_us", Unit: "us", Better: "lower"},
	{Name: "sim_read_p99_us", Unit: "us", Better: "lower"},
	{Name: "sim_write_p50_us", Unit: "us", Better: "lower"},
	{Name: "sim_write_p99_us", Unit: "us", Better: "lower"},
	{Name: "sim_nand_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "fail_share", Unit: "ratio", Better: "lower"},
	// Simulator core.
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_op", Unit: "events/op", Better: "lower"},
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.bare_ns_per_event", Unit: "ns", Better: "lower"},
	// Parallel runtime (shards only).
	{Name: "cluster.par_host_s", Unit: "s", Better: "lower"},
	{Name: "cluster.seq_host_s", Unit: "s", Better: "lower"},
	{Name: "cluster.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "cluster.cpu_s_per_wall_s", Unit: "ratio", Better: "lower"},
	{Name: "cluster.sys_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.domain_event_imbalance", Unit: "ratio", Better: "lower"},
	// Go runtime.
	{Name: "rt.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "rt.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "rt.heap_sys_mb_end", Unit: "MiB", Better: "lower"},
	{Name: "rt.cpu_s", Unit: "s", Better: "lower"},
	{Name: "rt.sys_cpu_share", Unit: "ratio", Better: "lower"},
	// Host interface.
	{Name: "devfront.write_cmds", Unit: "count", Better: "lower"},
	{Name: "devfront.read_cmds", Unit: "count", Better: "lower"},
	{Name: "devfront.flush_cmds", Unit: "count", Better: "lower"},
	{Name: "devfront.queue_wait_us", Unit: "us/op", Better: "lower"},
	{Name: "devfront.link_us", Unit: "us/op", Better: "lower"},
	{Name: "devfront.flush_drain_us", Unit: "us/op", Better: "lower"},
	// Durable cache controller.
	{Name: "core.firmware_us", Unit: "us/op", Better: "lower"},
	{Name: "core.cache_us", Unit: "us/op", Better: "lower"},
	{Name: "core.cache_hits", Unit: "count", Better: "higher"},
	{Name: "core.read_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.cache_evicts", Unit: "count", Better: "lower"},
	{Name: "core.coalesce_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.dump_pages", Unit: "count", Better: "lower"},
	{Name: "core.recoveries", Unit: "count", Better: "higher"},
	// Translation layer.
	{Name: "ftl.self_us", Unit: "us/op", Better: "lower"},
	{Name: "ftl.gc_us", Unit: "us/op", Better: "lower"},
	{Name: "ftl.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "ftl.gc_programs", Unit: "count", Better: "lower"},
	{Name: "ftl.gc_share", Unit: "ratio", Better: "lower"},
	{Name: "ftl.map_flush_pages", Unit: "count", Better: "lower"},
	// Flash array.
	{Name: "nand.programs", Unit: "count", Better: "lower"},
	{Name: "nand.reads", Unit: "count", Better: "lower"},
	{Name: "nand.erases", Unit: "count", Better: "lower"},
	{Name: "nand.busy_us", Unit: "us/op", Better: "lower"},
	{Name: "nand.busy_share", Unit: "ratio", Better: "lower"},
	// Engine + host.FS, seen from the device boundary.
	{Name: "host.dev_cmds_per_op", Unit: "cmds/op", Better: "lower"},
	{Name: "host.flushes_per_op", Unit: "cmds/op", Better: "lower"},
	{Name: "host.above_device_us", Unit: "us/op", Better: "lower"},
	// InnoDB (linkbench-innodb only).
	{Name: "innodb.pool_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "innodb.dirty_evictions", Unit: "count", Better: "lower"},
	{Name: "innodb.cleaner_flushes", Unit: "count", Better: "lower"},
	{Name: "innodb.wal_flushes", Unit: "count", Better: "lower"},
	{Name: "innodb.commits_per_wal_flush", Unit: "ratio", Better: "higher"},
	{Name: "innodb.data_pages_written", Unit: "count", Better: "lower"},
	{Name: "innodb.redo_pages_written", Unit: "count", Better: "lower"},
	{Name: "innodb.dwb_pages_written", Unit: "count", Better: "lower"},
	// Couch store (shards only).
	{Name: "couch.fsyncs", Unit: "count", Better: "lower"},
	{Name: "couch.tree_depth", Unit: "count", Better: "lower"},
	{Name: "couch.journal_pages_written", Unit: "count", Better: "lower"},
	{Name: "couch.op_p50_us", Unit: "us", Better: "lower"},
	{Name: "couch.op_p99_us", Unit: "us", Better: "lower"},
	// Serving layer (serve-mixed only).
	{Name: "serve.events_per_op", Unit: "events/op", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.bloom_skips", Unit: "count", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.retried", Unit: "count", Better: "lower"},
	{Name: "serve.throttled", Unit: "count", Better: "lower"},
	{Name: "serve.throttle_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.hedges", Unit: "count", Better: "lower"},
	{Name: "serve.deadlines", Unit: "count", Better: "lower"},
	{Name: "serve.rpc_retries", Unit: "count", Better: "lower"},
	{Name: "serve.unavailable", Unit: "count", Better: "lower"},
	{Name: "serve.stale_reads", Unit: "count", Better: "lower"},
	{Name: "serve.ycsb-a.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.ycsb-a.write_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.linkbench.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.linkbench.write_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.tpcc.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.tpcc.write_p99_us", Unit: "us", Better: "lower"},
	// Crash campaigns (crash-matrix only).
	{Name: "crash.points", Unit: "count", Better: "higher"},
	{Name: "crash.points.after-ack", Unit: "count", Better: "higher"},
	{Name: "crash.points.mid-program", Unit: "count", Better: "higher"},
	{Name: "crash.points.in-flush-drain", Unit: "count", Better: "higher"},
	{Name: "crash.points.mid-erase", Unit: "count", Better: "higher"},
	{Name: "crash.points.mid-dump", Unit: "count", Better: "higher"},
	{Name: "crash.points.mid-migration", Unit: "count", Better: "higher"},
	{Name: "crash.points.mid-catchup", Unit: "count", Better: "higher"},
	{Name: "crash.unsafe", Unit: "count", Better: "lower"},
	{Name: "crash.lost", Unit: "count", Better: "lower"},
	{Name: "crash.torn", Unit: "count", Better: "lower"},
	{Name: "crash.vol_lost", Unit: "count", Better: "higher"},
	{Name: "crash.host_ms_per_point", Unit: "ms", Better: "lower"},
	{Name: "crash.alloc_mb_per_point", Unit: "MiB", Better: "lower"},
	{Name: "crash.heap_growth_mb_per_point", Unit: "MiB", Better: "lower"},
	{Name: "crash.slowest_campaign_s", Unit: "s", Better: "lower"},
	// The tracing itself.
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// value is one reported number, in the driver's result shape.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values renders m as the driver's metrics object, which must carry exactly
// the declared names: a metric missing from m is written as 0 there and
// returned in unavailable, which is what tells it from a measured zero.
func values(decl []metric, m map[string]float64) (out map[string]value, unavailable []string) {
	out = make(map[string]value, len(decl))
	for _, d := range decl {
		v, ok := m[d.Name]
		if !ok {
			unavailable = append(unavailable, d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, unavailable
}
