package crashpoint

import (
	"runtime"
	"testing"

	"durassd/internal/faults"
)

// TestExploreFreesRigs: a campaign builds one full rig per crash point (an
// engine, a device, a database; or a cluster of replicated shards), and
// every one of them must be gone when Explore returns — no goroutine left
// parked, no heap pinned. Before engines closed their coroutines each point
// kept about 10 MiB alive for ever.
//
// Explore's replay workers (and those of the tests before this one) may
// still be on their way out after handing back their last outcome, so the
// goroutines are counted after the heap's garbage collections, by when the
// exiting ones are gone.
func TestExploreFreesRigs(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration replays many full runs")
	}
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle frees what the first one's finalizers released
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	for _, c := range []Campaign{
		{
			Scenario: faults.Scenario{
				Device: faults.DuraSSD, Engine: faults.EngineInnoDB,
				Clients: 4, Updates: 120, Seed: 5,
			},
			MaxPoints: 6,
			DumpTears: 1,
		},
		{
			Replica:   &ReplicaSpec{Groups: 2, Replicas: 3, Updates: 60, Seed: 11},
			MaxPoints: 4,
		},
	} {
		heap := heapInuse()
		goroutines := runtime.NumGoroutine()
		res, err := Explore(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(res.Points) < 3 {
			t.Fatalf("%s: only %d crash points explored", c.Name(), len(res.Points))
		}
		const slack = 8 << 20
		if got := heapInuse(); got > heap+slack {
			t.Errorf("%s: heap in use grew from %d to %d KiB over %d points", c.Name(), heap>>10, got>>10, len(res.Points))
		}
		if got := runtime.NumGoroutine(); got != goroutines {
			t.Errorf("%s: %d goroutines after Explore, %d before", c.Name(), got, goroutines)
		}
	}
}
