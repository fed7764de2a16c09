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
	if err := CheckRegression(mk(900), base, 2.0); err != nil {
		t.Errorf("0.9 allocs/event vs 0.5 baseline at 2x: unexpected failure: %v", err)
	}
	if err := CheckRegression(mk(1200), base, 2.0); err == nil {
		t.Error("1.2 allocs/event vs 0.5 baseline at 2x: regression not caught")
	}
	// Scenarios absent from the baseline start a fresh trajectory.
	fresh := []Result{{Name: "new", Events: 1000, Wall: time.Second, Allocs: 1 << 20}}
	if err := CheckRegression(fresh, base, 2.0); err != nil {
		t.Errorf("scenario missing from baseline must pass: %v", err)
	}
}
