package faults

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"durassd/internal/dbsim/buffer"
	"durassd/internal/host"
	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
)

func runTrials(t *testing.T, s Scenario, trials int) (lost, torn, acked int) {
	t.Helper()
	for i := 0; i < trials; i++ {
		s.Seed = int64(i + 1)
		s.CutAfter = time.Duration(1+rand.New(rand.NewSource(s.Seed^0x5eed)).Intn(29)) * time.Millisecond
		v, err := RunWith(s, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if v.Err != nil {
			t.Fatalf("trial %d audit: %v", i, v.Err)
		}
		lost += v.LostCommits
		torn += v.TornPages
		acked += v.AckedCommits
	}
	return
}

// TestRandomCutVerdicts pins the random-instant campaign: each row cuts
// power once per seed from 1 to trials, at 1–29 ms drawn from the seed, and
// sums what the audits found. DuraSSD is safe in every host configuration
// and volume geometry, including the fast one (barriers off, double-write
// off); the volatile SSD-A is safe only with barriers on, and mirroring it
// does not help, because the cut hits both copies at once.
func TestRandomCutVerdicts(t *testing.T) {
	for _, row := range []struct {
		sc                Scenario
		trials            int
		acked, lost, torn int
		safe              bool
	}{
		{Scenario{Device: DuraSSD}, 10, 1364, 0, 0, true},
		{Scenario{Device: DuraSSD, Barrier: true}, 10, 180, 0, 0, true},
		{Scenario{Device: DuraSSD, Barrier: true, DoubleWrite: true}, 10, 180, 0, 0, true},
		{Scenario{Device: SSDA}, 10, 1062, 81, 0, false},
		{Scenario{Device: SSDA, DoubleWrite: true}, 10, 1010, 75, 2, false},
		{Scenario{Device: SSDA, Barrier: true, DoubleWrite: true}, 10, 155, 0, 0, true},
		{Scenario{Device: DuraSSD, Layout: Striped, Width: 4}, 10, 1526, 0, 0, true},
		{Scenario{Device: DuraSSD, Layout: Mirror, Width: 2}, 10, 1359, 0, 0, true},
		{Scenario{Device: SSDA, Layout: Mirror, Width: 2}, 10, 1047, 78, 0, false},
		{Scenario{Device: DuraSSD, Engine: EnginePgSQL}, 6, 816, 0, 0, true},
		{Scenario{Device: SSDA, Engine: EnginePgSQL}, 8, 785, 102, 30, false},
		{Scenario{Device: SSDA, Engine: EnginePgSQL, Barrier: true, DoubleWrite: true}, 4, 65, 0, 0, true},
	} {
		t.Run(row.sc.Name(), func(t *testing.T) {
			lost, torn, acked := runTrials(t, row.sc, row.trials)
			t.Logf("%d trials: acked %d, lost %d, torn %d", row.trials, acked, lost, torn)
			if safe := lost == 0 && torn == 0; safe != row.safe {
				t.Errorf("safe = %v, want %v", safe, row.safe)
			}
			if acked != row.acked || lost != row.lost || torn != row.torn {
				t.Errorf("acked/lost/torn = %d/%d/%d, want %d/%d/%d",
					acked, lost, torn, row.acked, row.lost, row.torn)
			}
		})
	}
}

func TestRunWithNeedsACutInstant(t *testing.T) {
	// A zero instant is not "some time": a run either names its cut or
	// says it has none.
	if _, err := RunWith(Scenario{Device: DuraSSD, Seed: 1}, Options{}); err == nil {
		t.Fatal("RunWith without CutAfter or NoCut: no error")
	}
}

// TestWearRetirementKeepsAckedCommit pins one cut of the pgsql wear-out
// campaign: the scrubber's retirement copies a slot of page 39 while a
// commit rewrites it, and the copy used to land last and roll the commit
// back (key 39 acked v2, found v0, torn).
func TestWearRetirementKeepsAckedCommit(t *testing.T) {
	v, err := RunWith(Scenario{
		Device: DuraSSD, Engine: EnginePgSQL, Clients: 4, Updates: 240, Seed: 2,
		WearOut: true, CutAfter: 36892689 * time.Nanosecond,
	}, Options{InterruptedErase: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.Err != nil {
		t.Fatalf("audit: %v", v.Err)
	}
	if v.AckedCommits == 0 || v.LostCommits != 0 || v.TornPages != 0 {
		t.Fatalf("acked %d, lost %d, torn %d: %+v", v.AckedCommits, v.LostCommits, v.TornPages, v.Losses)
	}
}

// readLog records the first page of every read command once armed.
type readLog struct {
	*ssd.Device
	armed bool
	lpns  []storage.LPN
}

func (d *readLog) Read(p *sim.Proc, req iotrace.Req, lpn storage.LPN, n int, buf []byte) error {
	if d.armed {
		d.lpns = append(d.lpns, lpn)
	}
	return d.Device.Read(p, req, lpn, n, buf)
}

func TestRecoveryIOOrderIsDeterministic(t *testing.T) {
	// After the reboot every read is the model's: recovery validates the
	// double-write copies in slot order and the audit probes in page order,
	// never in a map's. SSD-A in the safe config, cut mid-run, leaves some
	// 39 copies to validate and 50 acked pages to probe; two runs of the
	// same seed must read the same pages in the same order.
	run := func() []storage.LPN {
		eng := sim.New()
		defer eng.Close()
		drive, err := ssd.New(eng, ssd.SSDA(16))
		if err != nil {
			t.Fatal(err)
		}
		dev := &readLog{Device: drive}
		fs := host.NewFS(dev, true)
		h, err := newHarness(Scenario{Engine: EngineInnoDB, DoubleWrite: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.load(eng, fs); err != nil {
			t.Fatal(err)
		}
		acked := make(map[buffer.PageID]uint64)
		for c := 0; c < 8; c++ {
			rng := rand.New(rand.NewSource(int64(c)))
			eng.Go("writer", func(p *sim.Proc) {
				for {
					touched, err := h.update(p, rng.Int63n(tableRows))
					if err != nil {
						return // power failed
					}
					for _, pv := range touched {
						acked[pv.ID] = max(acked[pv.ID], pv.Version)
					}
				}
			})
		}
		eng.Schedule(41*time.Millisecond, dev.PowerFail)
		eng.Run()
		h.e.Close()
		eng.Go("recovery", func(p *sim.Proc) {
			if err := dev.Reboot(p); err != nil {
				t.Errorf("Reboot: %v", err)
				return
			}
			dev.armed = true
			rep, err := h.recoverCrashed(p, eng, fs)
			if err != nil {
				t.Errorf("recovery: %v", err)
				return
			}
			defer h.e.Close()
			if rep.DWBPagesScanned < 2 || len(acked) < 2 {
				t.Errorf("%d double-write copies, %d acked pages: nothing to order", rep.DWBPagesScanned, len(acked))
			}
			if err := h.audit(p, acked, &Verdict{}); err != nil {
				t.Errorf("audit: %v", err)
			}
		})
		eng.Run()
		return dev.lpns
	}
	a, b := run(), run()
	if len(a) == 0 || !slices.Equal(a, b) {
		t.Fatalf("two runs of one seed read %d and %d pages after the reboot, in different orders:\n%v\n%v", len(a), len(b), a, b)
	}
}
