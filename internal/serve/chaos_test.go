package serve

import (
	"testing"
	"time"
)

// Determinism under fault injection, the property that makes the chaos
// plane usable: brownout, power-fail-reboot-catchup and overload are all
// ordinary simulation events, so the full report — tenant tables, noise
// accounts, robustness counters, iotrace digest — is byte-identical at any
// worker count. (The name extends the TestScenarioDeterminism family that
// CI's digest sweep runs at multiple GOMAXPROCS values.)
func TestScenarioDeterminismUnderChaos(t *testing.T) {
	var base string
	for _, workers := range []int{1, 2, 4} {
		res, err := RunScenario(ChaosScenario(workers, 42))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := res.Render()
		if base == "" {
			base = out
			continue
		}
		if out != base {
			t.Errorf("chaos report diverges at workers=%d:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
				workers, base, workers, out)
		}
	}
}

// The canonical chaos schedule actually exercises the machinery it exists
// to exercise: the crash opens a breaker and forces a catch-up transfer,
// the brownout forces hedged reads, the overload forces shedding and
// client retries, and the degraded window sheds writes as unavailable.
func TestChaosScenarioExercisesFailurePaths(t *testing.T) {
	res, err := RunScenario(ChaosScenario(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	rb := res.Robust
	if rb.BreakerOpens == 0 {
		t.Errorf("no breaker opened across a replica power failure")
	}
	if rb.CatchupKeys == 0 {
		t.Errorf("no catch-up transfer after the mid-traffic reboot")
	}
	if rb.Hedges == 0 {
		t.Errorf("no hedged reads through a %v brownout", DefaultChaos().Brownouts[0].Slowdown)
	}
	var retried, shed int64
	for _, tr := range res.Tenants {
		retried += tr.Retried
		shed += tr.Shed
	}
	if shed == 0 || retried == 0 {
		t.Errorf("overload burst produced shed=%d retried=%d, want both > 0", shed, retried)
	}
	// The scenario must still mostly serve: every real tenant completes its
	// ops (as answers, sheds, or unavailable refusals — never a hang).
	for _, tr := range res.Tenants[:3] {
		if tr.Ops == 0 {
			t.Errorf("tenant %s served zero operations under chaos", tr.Name)
		}
	}
	if res.Elapsed < 100*time.Millisecond {
		t.Errorf("virtual elapsed %v; the chaos mix should span the reboot window (~110ms)", res.Elapsed)
	}
}

// Replication with healthy replicas must not change what the tenants see:
// an R=3 W=2 run without chaos serves every tenant fully, with zero
// unavailable refusals and no stale-flagged reads.
func TestReplicatedScenarioHealthyServesClean(t *testing.T) {
	cfg := ScenarioConfig{
		Shards: 2, Replicas: 3, Workers: 1, Seed: 9,
		Tenants: ChaosTenants(),
	}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tenants {
		if tr.Unavailable != 0 {
			t.Errorf("tenant %s: %d unavailable with all replicas healthy", tr.Name, tr.Unavailable)
		}
		if tr.StaleReads != 0 {
			t.Errorf("tenant %s: %d stale-flagged reads with all groups at quorum", tr.Name, tr.StaleReads)
		}
		if tr.Ops == 0 {
			t.Errorf("tenant %s served zero operations", tr.Name)
		}
	}
	if res.Robust.BreakerOpens != 0 {
		t.Errorf("%d breakers opened with no faults injected", res.Robust.BreakerOpens)
	}
}
