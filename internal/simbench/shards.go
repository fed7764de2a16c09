package simbench

import (
	"fmt"
	"runtime"
	"time"

	"durassd/internal/couch"
	"durassd/internal/fio"
	"durassd/internal/host"
	"durassd/internal/repro"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
	"durassd/internal/workload/ycsb"
)

// The shards scenario is the multi-device benchmark the cluster runtime
// exists for: four DuraSSDs, each in its own simulation domain with its own
// workload — two running fio 4KB random writes, two running YCSB-A against
// a couch store. "shards" asks the cluster for one worker per domain (it
// runs on min(4, CPUs) lanes); "shards-seq" runs the identical program on
// one lane (workers=1), so the pair measures what lanes gain at equal
// schedules: both produce byte-identical virtual-time behavior (pinned by
// TestShardsDigestWorkerSweep), only the wall clock differs. The devices
// share nothing — the one-device-per-engine deployment of the paper's
// Tables 1 and 5 — so there is no link between the domains and no epoch
// barrier inside the run: a lane simply runs its domains one after the other.

// shardsLatency is the cluster's link latency. Nothing depends on it: the
// scenario declares no link, so each domain is a component of its own and
// runs to completion in the cluster's single epoch (sim.Cluster's epoch
// bound). It stays at the value the scenario always had.
const shardsLatency = 250 * time.Microsecond

// shardsDomains is the domain count of the shards scenario (ISSUE: 4
// DuraSSDs), and shardsWorkers the worker count the parallel variant asks
// for.
const (
	shardsDomains = 4
	shardsWorkers = 4
)

// shardsRig is the built-but-not-run scenario: call run to drive it.
type shardsRig struct {
	c    *sim.Cluster
	devs []storage.Device
	fio  []*fio.Pending
	ycsb []*ycsb.Pending
}

// newShardsRig builds the cluster and spawns every client thread. Setup
// (file creation, preload, store population) is instant virtual time and
// happens while the cluster is idle.
func newShardsRig(workers int) (*shardsRig, error) {
	c := sim.NewCluster(shardsDomains, shardsLatency, workers)
	r := &shardsRig{c: c, devs: make([]storage.Device, shardsDomains)}
	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()
	// Domains 0-1: fio 4KB random write, 4 threads each.
	for i := 0; i < 2; i++ {
		dom := c.Domain(i)
		d, err := ssd.New(dom.Engine(), ssd.DuraSSD(16))
		if err != nil {
			return nil, err
		}
		r.devs[i] = d
		fs := host.NewFS(d, false)
		filePages := d.Pages() * 9 / 10
		file, err := fs.Create(fmt.Sprintf("shard%d", i), filePages)
		if err != nil {
			return nil, err
		}
		if err := file.Preload(0, filePages, nil); err != nil {
			return nil, err
		}
		pd, err := fio.Start(dom.Engine(), file, fio.Job{
			Name:    fmt.Sprintf("shard%d", i),
			Threads: 4,
			ReadPct: 0,
			Ops:     12_000,
			Seed:    42 + int64(i),
		})
		if err != nil {
			return nil, err
		}
		r.fio = append(r.fio, pd)
	}
	// Domains 2-3: YCSB-A on a couch store, 2 threads each.
	for i := 2; i < 4; i++ {
		dom := c.Domain(i)
		d, err := ssd.New(dom.Engine(), ssd.DuraSSD(32))
		if err != nil {
			return nil, err
		}
		r.devs[i] = d
		fs := host.NewFS(d, true)
		const docs = 4000
		st, err := couch.Open(dom.Engine(), fs, couch.Config{Docs: docs, BatchSize: 100})
		if err != nil {
			return nil, err
		}
		r.ycsb = append(r.ycsb, ycsb.Start(dom.Engine(), st, docs, ycsb.Config{
			Operations: 6000,
			UpdatePct:  50,
			Threads:    2,
			Seed:       7 + int64(i),
		}))
	}
	ok = true
	return r, nil
}

// run drives the cluster to completion, surfaces the first workload error,
// and returns the total events processed across all domains with the
// cluster's merge counters.
func (r *shardsRig) run() (uint64, sim.ClusterStats, error) {
	defer r.c.Close()
	r.c.Run()
	for i, pd := range r.fio {
		if _, err := pd.Result(); err != nil {
			return 0, sim.ClusterStats{}, fmt.Errorf("fio shard %d: %w", i, err)
		}
	}
	for i, pd := range r.ycsb {
		if _, err := pd.Result(); err != nil {
			return 0, sim.ClusterStats{}, fmt.Errorf("ycsb shard %d: %w", i+2, err)
		}
	}
	return r.c.Events(), r.c.Stats(), nil
}

// runShards executes the scenario at the given worker count.
func runShards(workers int) (uint64, sim.ClusterStats, error) {
	r, err := newShardsRig(workers)
	if err != nil {
		return 0, sim.ClusterStats{}, err
	}
	return r.run()
}

// ShardSweepRow is one cell of the worker-scaling sweep.
type ShardSweepRow struct {
	Workers int
	Result  Result
}

// SweepReport assembles the shared -json schema from a worker sweep. On a
// single-CPU host the report carries "single_core": true — every row then
// ran on one lane, so the ratios in it are noise, not parallelism.
func SweepReport(rows []ShardSweepRow, repeat int) *repro.JSONReport {
	rep := repro.NewJSONReport("simbench-shardsweep")
	rep.SetConfig("repeat", repeat)
	rep.SetConfig("num_cpu", runtime.NumCPU())
	annotateSingleCore(rep, runtime.NumCPU())
	for _, row := range rows {
		prefix := fmt.Sprintf("shards-w%d", row.Workers)
		rep.AddMetric(prefix+"/events", float64(row.Result.Events))
		rep.AddMetric(prefix+"/wall_ns", float64(row.Result.Wall.Nanoseconds()))
		rep.AddMetric(prefix+"/ns_per_event", row.Result.NsPerEvent())
		rep.AddMetric(prefix+"/events_per_sec", row.Result.EventsPerSec())
		addClusterMetrics(rep, row.Result)
	}
	return rep
}

// ShardSweep measures the shards scenario at each worker count (repeat
// runs each, fastest kept): the scaling table for EXPERIMENTS.md. Virtual
// time is identical in every cell; only wall clock varies.
func ShardSweep(workerCounts []int, repeat int) ([]ShardSweepRow, error) {
	rows := make([]ShardSweepRow, 0, len(workerCounts))
	for _, w := range workerCounts {
		w := w
		s := Scenario{
			Name: fmt.Sprintf("shards-w%d", w),
			Desc: fmt.Sprintf("shards scenario at %d workers", w),
			run:  func() (uint64, sim.ClusterStats, error) { return runShards(w) },
		}
		r, err := MeasureBest(s, repeat)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ShardSweepRow{Workers: w, Result: r})
	}
	return rows, nil
}
