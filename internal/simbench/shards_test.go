package simbench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"durassd/internal/iotrace"
)

// shardsDigest builds the shards scenario, records every device's event
// stream through the shard merge, runs it at the given worker count, and
// returns the merged schedule fingerprint plus the totals.
func shardsDigest(t *testing.T, workers int) string {
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
	return fmt.Sprintf("%s events=%d written=%d epochs=%d messages=%d", rec.Digest(), events, wrote, st.Epochs, st.Messages)
}

// TestShardsDigestWorkerSweep is the headline determinism gate: the same
// seeds produce a byte-identical merged device schedule whether the four
// domains run on one worker thread or four, at GOMAXPROCS 1 and N.
func TestShardsDigestWorkerSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := shardsDigest(t, 1)
	for _, procs := range []int{1, runtime.NumCPU() + 1} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{shardsWorkers} {
			if got := shardsDigest(t, workers); got != want {
				t.Fatalf("GOMAXPROCS=%d workers=%d: schedule diverged\n got: %s\nwant: %s",
					procs, workers, got, want)
			}
		}
	}
}

// TestCheckRegressionAllocs pins the allocs/event arm of the -check gate.
func TestCheckRegressionAllocs(t *testing.T) {
	base := &JSONBaseline{
		Schema: 1, Tool: "simbench",
		Metrics: map[string]float64{
			"s/ns_per_event":     100,
			"s/allocs_per_event": 0.5,
		},
	}
	mk := func(allocs uint64) []Result {
		return []Result{{Name: "s", Events: 1000, Wall: 100 * time.Microsecond, Allocs: allocs}}
	}
	if _, err := CheckRegression(mk(620), base, 2.0); err != nil {
		t.Errorf("0.62 allocs/event vs 0.5 baseline (limit 0.625): unexpected failure: %v", err)
	}
	if _, err := CheckRegression(mk(630), base, 2.0); err == nil {
		t.Error("0.63 allocs/event vs 0.5 baseline (limit 0.625): regression not caught")
	}
	// Scenarios absent from the baseline start a fresh trajectory.
	fresh := []Result{{Name: "new", Events: 1000, Wall: time.Second, Allocs: 1 << 20}}
	if _, err := CheckRegression(fresh, base, 2.0); err != nil {
		t.Errorf("scenario missing from baseline must pass: %v", err)
	}
}

// TestCheckRegressionLikeForLike pins both arms of the -check gate. Timing:
// a cluster scenario's ns/event is compared only against a baseline from a
// host with the same CPU count, a single-engine scenario's always, and the
// allocs/event arm runs either way.
func TestCheckRegressionLikeForLike(t *testing.T) {
	baseline := func(numCPU int) *JSONBaseline {
		b := &JSONBaseline{Schema: 1, Tool: "simbench", Metrics: map[string]float64{
			"s/ns_per_event": 100, "s/allocs_per_event": 0.5,
		}}
		b.Config.NumCPU = numCPU
		return b
	}
	same, other := baseline(runtime.NumCPU()), baseline(runtime.NumCPU()+1)
	// 300 ns/event, three times the baseline, at its allocs/event.
	solo := Result{Name: "s", Events: 1000, Wall: 300 * time.Microsecond, Allocs: 500}
	clustered := solo
	clustered.Cluster.Epochs = 1

	skipped, err := CheckRegression([]Result{clustered}, other, 2.0)
	if err != nil || len(skipped) != 1 || skipped[0] != "s" {
		t.Errorf("cluster result vs a %d-CPU baseline: skipped %v, err %v; want the timing skipped and reported", other.Config.NumCPU, skipped, err)
	}
	if skipped, err := CheckRegression([]Result{clustered}, same, 2.0); err == nil || len(skipped) != 0 {
		t.Errorf("cluster result vs a same-CPU baseline: skipped %v, err %v; want the 3x regression caught", skipped, err)
	}
	for _, base := range []*JSONBaseline{same, other} {
		if _, err := CheckRegression([]Result{solo}, base, 2.0); err == nil {
			t.Errorf("single-engine result 3x slower than a %d-CPU baseline passed", base.Config.NumCPU)
		}
	}
	clustered.Allocs = 1200
	clustered.Wall = 100 * time.Microsecond
	if _, err := CheckRegression([]Result{clustered}, other, 2.0); err == nil {
		t.Error("allocs/event regression of a cluster result passed against a different-CPU baseline")
	}
	// The allocs arm has its own, tighter factor: 1.15x + 0.05 of the 0.5
	// baseline is 0.625 allocs/event, whatever the timing factor.
	solo.Wall = 100 * time.Microsecond
	solo.Allocs = 650 // 1.3x
	if _, err := CheckRegression([]Result{solo}, same, 2.0); err == nil {
		t.Error("1.3x allocs/event regression passed")
	}
	solo.Allocs = 550 // 1.1x
	if _, err := CheckRegression([]Result{solo}, same, 2.0); err != nil {
		t.Errorf("1.1x allocs/event failed: %v", err)
	}
}
