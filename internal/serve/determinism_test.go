package serve

import (
	"runtime"
	"testing"
)

// The acceptance gate of this package: the mixed-tenant scenario is a pure
// function of its seed. The same configuration must render a byte-identical
// per-tenant report and produce an identical merged iotrace digest at every
// cluster worker count and under every GOMAXPROCS value — the conservative
// parallel engine's whole contract, observed end to end through the serving
// layer.

// scenarioFingerprint runs the default scenario and returns the rendered
// report plus the schedule digest.
func scenarioFingerprint(t *testing.T, workers int) (string, string) {
	t.Helper()
	res, err := RunScenario(ScenarioConfig{Shards: 4, Workers: workers, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Render(), res.Digest
}

// TestScenarioDeterminismAcrossWorkers: 1 vs 2 vs 4 cluster workers.
func TestScenarioDeterminismAcrossWorkers(t *testing.T) {
	baseReport, baseDigest := scenarioFingerprint(t, 1)
	if baseDigest == "" {
		t.Fatal("empty digest: the recorder saw no device events")
	}
	for _, workers := range []int{2, 4} {
		report, digest := scenarioFingerprint(t, workers)
		if digest != baseDigest {
			t.Errorf("workers=%d: digest %s != workers=1 digest %s", workers, digest, baseDigest)
		}
		if report != baseReport {
			t.Errorf("workers=%d: rendered report diverged from workers=1:\n%s\n--- vs ---\n%s",
				workers, report, baseReport)
		}
	}
}

// TestScenarioDeterminismAcrossGOMAXPROCS: the schedule must not depend on
// how many OS threads the Go runtime multiplexes the workers onto.
func TestScenarioDeterminismAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	baseReport, baseDigest := scenarioFingerprint(t, 4)
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		report, digest := scenarioFingerprint(t, 4)
		if digest != baseDigest {
			t.Errorf("GOMAXPROCS=%d: digest %s != GOMAXPROCS=1 digest %s", procs, digest, baseDigest)
		}
		if report != baseReport {
			t.Errorf("GOMAXPROCS=%d: rendered report diverged from GOMAXPROCS=1", procs)
		}
	}
}

// TestScenarioSeedSensitivity: the digest actually captures the workload —
// a different seed yields a different schedule, so digest identity above is
// meaningful rather than vacuous.
func TestScenarioSeedSensitivity(t *testing.T) {
	a, err := RunScenario(ScenarioConfig{Shards: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(ScenarioConfig{Shards: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatalf("seeds 1 and 2 produced the same digest %s", a.Digest)
	}
}

// TestScenarioServesAndSheds: the default mix actually exercises the layer —
// every tenant completes operations, the TPC-C tenant is throttled by its
// QoS contract, the cache absorbs reads, and at least one shard sheds.
func TestScenarioServesAndSheds(t *testing.T) {
	res, err := RunScenario(ScenarioConfig{Shards: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var shed int64
	for _, n := range res.ShedByShard {
		shed += n
	}
	if shed == 0 {
		t.Error("default scenario shed nothing: admission control untested")
	}
	if res.CacheHits == 0 {
		t.Error("default scenario never hit the host cache")
	}
	for _, tr := range res.Tenants {
		if tr.Ops == 0 {
			t.Errorf("tenant %s completed no operations", tr.Name)
		}
		if tr.ReadP99 <= 0 || tr.WriteP99 <= 0 {
			t.Errorf("tenant %s: empty latency histograms (p99 read %v, write %v)",
				tr.Name, tr.ReadP99, tr.WriteP99)
		}
	}
	if res.Tenants[2].Name != "tpcc" || res.Tenants[2].Throttled == 0 {
		t.Error("the rate-capped tpcc tenant was never throttled")
	}
}
