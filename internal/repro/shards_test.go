package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"durassd/internal/couch"
	"durassd/internal/fio"
	"durassd/internal/host"
	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
	"durassd/internal/workload/ycsb"
)

// The shards program is the multi-device run the cluster runtime exists
// for: four DuraSSDs, each in its own simulation domain with its own
// workload — two running fio 4KB random writes, two running YCSB-A against
// a couch store. The devices share nothing — the one-device-per-engine
// deployment of the paper's Tables 1 and 5 — so there is no link between
// the domains and no epoch barrier inside the run: a lane simply runs its
// domains one after the other. cmd/bench's shards workload runs the same
// program at ten times the operations.

// shardsLatency is the cluster's link latency. Nothing depends on it: the
// program declares no link, so each domain is a component of its own and
// runs to completion in the cluster's single epoch (sim.Cluster's epoch
// bound).
const shardsLatency = 250 * time.Microsecond

// shardsDomains is the domain count of the shards program, and the worker
// count its parallel run asks for.
const shardsDomains = 4

// shardsSchedule is the 1-worker fingerprint of the shards program: the
// merged device schedule, then the totals and the cluster's merge counters.
const shardsSchedule = "18e70a0b86183179f5037656e4ec49b3eb6acd7523e1ce80dad5ed6f914f2ca9 events=428036 written=41760 epochs=1 messages=0"

// shardsRig is the built-but-not-run program: call run to drive it.
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

// shardsDigest builds the shards program, records every device's event
// stream through the shard merge, runs it at the given worker count, and
// returns the merged schedule fingerprint plus the totals, with the
// cluster's merge counters.
func shardsDigest(t *testing.T, workers int) (string, sim.ClusterStats) {
	t.Helper()
	r, err := newShardsRig(workers)
	if err != nil {
		t.Fatalf("newShardsRig(%d): %v", workers, err)
	}
	rec := iotrace.NewShardRecorder(shardsDomains)
	for i, d := range r.devs {
		rec.Attach(i, d.Registry())
	}
	events, st, err := r.run()
	if err != nil {
		t.Fatalf("shards run (workers=%d): %v", workers, err)
	}
	var wrote int64
	for _, d := range r.devs {
		wrote += d.Stats().PagesWritten
	}
	// Epoch and message counts are properties of the merge rule, not of the
	// lane count, so they belong in the fingerprint too.
	return fmt.Sprintf("%s events=%d written=%d epochs=%d messages=%d", rec.Digest(), events, wrote, st.Epochs, st.Messages), st
}

// TestShardsDigestWorkerSweep is the headline determinism gate: the same
// seeds produce the pinned merged device schedule whether the four domains
// run on one worker thread or four, at GOMAXPROCS 1 and N. The domains have
// no link, so every run is one epoch with no message and crosses the
// barrier at most once.
func TestShardsDigestWorkerSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second program")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	check := func(procs, workers int) {
		t.Helper()
		got, st := shardsDigest(t, workers)
		if got != shardsSchedule {
			t.Fatalf("GOMAXPROCS=%d workers=%d: schedule diverged\n got: %s\nwant: %s",
				procs, workers, got, shardsSchedule)
		}
		if st.Epochs != 1 || st.Messages != 0 || st.BarrierEpochs > 1 {
			t.Fatalf("GOMAXPROCS=%d workers=%d: %d epochs, %d messages, %d barrier epochs; want 1, 0 and at most 1",
				procs, workers, st.Epochs, st.Messages, st.BarrierEpochs)
		}
	}
	check(runtime.GOMAXPROCS(0), 1)
	for _, procs := range []int{1, runtime.NumCPU() + 1} {
		runtime.GOMAXPROCS(procs)
		check(procs, shardsDomains)
	}
}
