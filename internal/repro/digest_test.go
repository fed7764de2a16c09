package repro

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"durassd/internal/couch"
	"durassd/internal/crashpoint"
	"durassd/internal/faults"
	"durassd/internal/fio"
	"durassd/internal/iotrace"
	"durassd/internal/serve"
	"durassd/internal/ssd"
	"durassd/internal/workload/ycsb"
)

// The golden digests pin the exact virtual-time schedule of every database
// engine and workload on DuraSSD (and of both engines' repair paths on
// SSD-A): device event streams (write acks, flush
// drains, NAND programs/erases, retirements) hashed together with the
// audited outcomes. A scheduler change that reorders two events, shifts a
// timestamp by a nanosecond, or changes a crash verdict flips a digest.
// They were generated before the zero-alloc scheduler refactor and must
// stay byte-identical after it.

type digestFn func(t *testing.T) string

func goldenCases() map[string]digestFn {
	return map[string]digestFn{
		"faults-innodb-durassd": func(t *testing.T) string {
			return faultsDigest(t, faults.Scenario{Device: faults.DuraSSD, Engine: faults.EngineInnoDB, Seed: 5, CutAfter: 12 * time.Millisecond})
		},
		"faults-pgsql-durassd": func(t *testing.T) string {
			return faultsDigest(t, faults.Scenario{Device: faults.DuraSSD, Engine: faults.EnginePgSQL, DoubleWrite: true, Seed: 6, CutAfter: 15 * time.Millisecond})
		},
		"faults-innodb-durassd-wearout": func(t *testing.T) string {
			return faultsDigest(t, faults.Scenario{Device: faults.DuraSSD, Engine: faults.EngineInnoDB, Seed: 9, WearOut: true})
		},
		// The two repair paths, which DuraSSD never reaches: a volatile
		// drive in the safe configuration, cut mid-run. Recovery scans the
		// double-write area and rewrites 21 pages from it (InnoDB), and
		// re-bases 6 torn pages on logged full images (PostgreSQL).
		"faults-innodb-ssda-dwb": func(t *testing.T) string {
			return faultsDigest(t, faults.Scenario{Device: faults.SSDA, Engine: faults.EngineInnoDB, Barrier: true, DoubleWrite: true, Seed: 1, CutAfter: 41 * time.Millisecond})
		},
		"faults-pgsql-ssda-fpw": func(t *testing.T) string {
			return faultsDigest(t, faults.Scenario{Device: faults.SSDA, Engine: faults.EnginePgSQL, Barrier: true, DoubleWrite: true, Seed: 2, CutAfter: 20 * time.Millisecond})
		},
		"crashpoint-innodb-durassd": func(t *testing.T) string { return crashpointDigest(t, faults.EngineInnoDB, 3) },
		"crashpoint-pgsql-durassd":  func(t *testing.T) string { return crashpointDigest(t, faults.EnginePgSQL, 4) },
		"fio-fsync-durassd":         fioDigest,
		"ycsb-a-durassd":            ycsbDigest,
		"serve-midburst": func(t *testing.T) string {
			return serveDigest(t, crashpoint.Campaign{
				Burst: &crashpoint.BurstSpec{Shards: 4, Volatile: []int{1, 3}, Updates: 120, Seed: 5}, MaxPoints: 6,
			})
		},
		"serve-replicaloss-r3w2": func(t *testing.T) string {
			return serveDigest(t, crashpoint.Campaign{
				Replica: &crashpoint.ReplicaSpec{Groups: 2, Replicas: 3, Updates: 120, Seed: 6}, MaxPoints: 6,
			})
		},
		"serve-replicaloss-r1-volatile": func(t *testing.T) string {
			return serveDigest(t, crashpoint.Campaign{
				Replica: &crashpoint.ReplicaSpec{Groups: 2, Replicas: 1, Volatile: true, Updates: 120, Seed: 7}, MaxPoints: 6,
			})
		},
		// The mixed-tenant serving scenario as servebench runs it: the
		// default four-shard box, and the replicated box under the seeded
		// fault schedule (group timings, breakers, link latency).
		"serve-scenario": func(t *testing.T) string { return scenarioDigest(t, serve.ScenarioConfig{Shards: 4, Seed: 1}) },
		"serve-chaos":    func(t *testing.T) string { return scenarioDigest(t, serve.ChaosScenario(1, 1)) },
	}
}

// scenarioDigest runs one serving scenario and hashes its rendered report
// together with its iotrace digest.
func scenarioDigest(t *testing.T, cfg serve.ScenarioConfig) string {
	t.Helper()
	res, err := serve.RunScenario(cfg)
	if err != nil {
		t.Fatalf("serve.RunScenario: %v", err)
	}
	return sha256Hex(res.Render() + "\ndigest=" + res.Digest + "\n")
}

// faultsDigest runs one crash scenario (a wear-out scenario runs as a probe,
// without a cut) at 8 clients and 300 updates and hashes the member-stamped
// device event stream plus the audited verdict.
func faultsDigest(t *testing.T, s faults.Scenario) string {
	t.Helper()
	var b strings.Builder
	opts := faults.Options{
		EventFn: func(member int, kind iotrace.EventKind, at time.Duration) {
			fmt.Fprintf(&b, "%d %s %d\n", member, kind, int64(at))
		},
		NoCut: s.WearOut, // probe: run the scrub/retire schedule to completion
	}
	s.Clients, s.Updates = 8, 300
	v, err := faults.RunWith(s, opts)
	if err != nil {
		t.Fatalf("faults.RunWith: %v", err)
	}
	fmt.Fprintf(&b, "acked=%d lost=%d torn=%d redo=%d dump=%d retries=%d lostdev=%d\n",
		v.AckedCommits, v.LostCommits, v.TornPages, v.RedoApplied, v.DumpPages, v.DumpRetries, v.LostDevPages)
	return sha256Hex(b.String())
}

// crashpointDigest explores a small campaign and folds the schedule digest
// together with the safety tallies.
func crashpointDigest(t *testing.T, engine faults.EngineKind, seed int64) string {
	t.Helper()
	res, err := crashpoint.Explore(crashpoint.Campaign{
		Scenario: faults.Scenario{
			Device:  faults.DuraSSD,
			Engine:  engine,
			Clients: 6,
			Updates: 120,
			Seed:    seed,
		},
		MaxPoints: 6,
	})
	if err != nil {
		t.Fatalf("crashpoint.Explore: %v", err)
	}
	return sha256Hex(fmt.Sprintf("schedule=%s points=%d unsafe=%d lost=%d torn=%d\n",
		res.Digest, len(res.Points), res.Unsafe, res.Lost, res.Torn))
}

// serveDigest explores a serving-layer campaign (MidBurst or ReplicaLoss)
// and hashes the schedule digest, the points, and every outcome's tallies by
// device class beside the replication ones.
func serveDigest(t *testing.T, c crashpoint.Campaign) string {
	t.Helper()
	res, err := crashpoint.Explore(c)
	if err != nil {
		t.Fatalf("crashpoint.Explore: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "schedule=%s points=%d\n", res.Digest, len(res.Points))
	for _, o := range res.Outcomes {
		fmt.Fprintf(&b, "%s@%d tear=%d acked=%d lost=%d torn=%d vlost=%d vtorn=%d grouplost=%d catchup=%d\n",
			o.Point.Kind, int64(o.Point.At), o.Point.DumpTear,
			o.Verdict.AckedCommits, o.Verdict.LostCommits, o.Verdict.TornPages,
			o.Serve.VolatileLost, o.Serve.VolatileTorn, o.Serve.GroupLost, o.Serve.CatchupKeys)
	}
	return sha256Hex(b.String())
}

// fioDigest runs a small fsync-heavy fio job on DuraSSD and hashes the
// device event stream plus the final throughput numbers.
func fioDigest(t *testing.T) string {
	t.Helper()
	rig, err := NewRig(DuraSSD, 32, true)
	if err != nil {
		t.Fatalf("NewRig: %v", err)
	}
	var b strings.Builder
	rig.Dev.(*ssd.Device).Registry().SetEventFn(func(kind iotrace.EventKind, at time.Duration) {
		fmt.Fprintf(&b, "%s %d\n", kind, int64(at))
	})
	res, err := fio.Run(rig.Eng, rig.FS, fio.Job{
		Name:       "golden",
		Threads:    3,
		ReadPct:    20,
		FsyncEvery: 8,
		Ops:        1200,
		FilePages:  rig.Dev.Pages() / 2, // leave GC headroom at this small scale
		Seed:       1234,
		Preload:    true,
	})
	if err != nil {
		t.Fatalf("fio.Run: %v", err)
	}
	st := rig.Dev.Stats()
	fmt.Fprintf(&b, "ops=%d elapsed=%d written=%d read=%d flushes=%d\n",
		res.Ops, int64(res.Elapsed), st.PagesWritten, st.PagesRead, st.FlushCommands)
	return sha256Hex(b.String())
}

// ycsbDigest runs a small YCSB-A job against couch on DuraSSD and hashes
// the device event stream plus the final counters.
func ycsbDigest(t *testing.T) string {
	t.Helper()
	rig, err := NewRig(DuraSSD, 32, true)
	if err != nil {
		t.Fatalf("NewRig: %v", err)
	}
	var b strings.Builder
	rig.Dev.(*ssd.Device).Registry().SetEventFn(func(kind iotrace.EventKind, at time.Duration) {
		fmt.Fprintf(&b, "%s %d\n", kind, int64(at))
	})
	const docs = 2000
	st, err := couch.Open(rig.Eng, rig.FS, couch.Config{Docs: docs, BatchSize: 50})
	if err != nil {
		t.Fatalf("couch.Open: %v", err)
	}
	res, err := ycsb.Run(rig.Eng, st, docs, ycsb.Config{
		Operations: 3000,
		UpdatePct:  50,
		Threads:    2,
		Seed:       99,
	})
	if err != nil {
		t.Fatalf("ycsb.Run: %v", err)
	}
	ds := rig.Dev.Stats()
	fmt.Fprintf(&b, "ops=%d elapsed=%d written=%d read=%d flushes=%d\n",
		res.Ops, int64(res.Elapsed), ds.PagesWritten, ds.PagesRead, ds.FlushCommands)
	return sha256Hex(b.String())
}

// TestGoldenDigests pins the fourteen schedules in
// testdata/golden_digests.json.
func TestGoldenDigests(t *testing.T) {
	cases := goldenCases()
	got := make(map[string]string, len(cases))
	for _, name := range SortedKeys(cases) {
		got[name] = cases[name](t)
	}
	checkGolden(t, "testdata/golden_digests.json", got,
		"schedule digest drifted: identical seeds must stay byte-identical across scheduler refactors")
}

// TestGoldenDigestsStable runs one representative digest twice in-process
// to catch nondeterminism that would also poison the golden comparison.
func TestGoldenDigestsStable(t *testing.T) {
	a := crashpointDigest(t, faults.EngineInnoDB, 3)
	b := crashpointDigest(t, faults.EngineInnoDB, 3)
	if a != b {
		t.Fatalf("same-process digests differ: %s vs %s", a, b)
	}
}
