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
		v, err := Run(s)
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

func TestDuraSSDFastConfigIsSafe(t *testing.T) {
	// The paper's headline: barriers off, double-write off, and still no
	// acknowledged commit is ever lost and no page is ever torn.
	lost, torn, acked := runTrials(t, Scenario{
		Device: DuraSSD, Barrier: false, DoubleWrite: false,
	}, 10)
	if acked == 0 {
		t.Fatal("no commits acknowledged before the cut; scenario too short")
	}
	if lost != 0 || torn != 0 {
		t.Fatalf("DuraSSD OFF/OFF lost %d commits, %d torn pages across trials", lost, torn)
	}
}

func TestDuraSSDDefaultConfigIsSafe(t *testing.T) {
	lost, torn, _ := runTrials(t, Scenario{
		Device: DuraSSD, Barrier: true, DoubleWrite: true,
	}, 4)
	if lost != 0 || torn != 0 {
		t.Fatalf("DuraSSD ON/ON lost %d commits, %d torn pages", lost, torn)
	}
}

func TestVolatileSSDFastConfigLosesData(t *testing.T) {
	// The counterexample: the same fast configuration on a volatile-cache
	// drive must lose acknowledged commits across enough trials.
	lost, _, acked := runTrials(t, Scenario{
		Device: SSDA, Barrier: false, DoubleWrite: false,
	}, 10)
	if acked == 0 {
		t.Fatal("no commits acknowledged before the cut")
	}
	if lost == 0 {
		t.Fatal("volatile SSD with barriers off lost nothing across 10 power cuts — the unsafety the paper warns about is not being modeled")
	}
}

func TestDuraSSDVolumesStaySafe(t *testing.T) {
	// Composing DuraSSDs into a stripe or mirror must not weaken the
	// guarantee: the power cut hits every member, and every member's
	// durable cache holds.
	for _, layout := range []struct {
		layout Layout
		width  int
	}{{Striped, 4}, {Mirror, 2}} {
		lost, torn, acked := runTrials(t, Scenario{
			Device: DuraSSD, Layout: layout.layout, Width: layout.width,
			Barrier: false, DoubleWrite: false,
		}, 5)
		if acked == 0 {
			t.Fatalf("%s-%d: no commits acknowledged before the cut", layout.layout, layout.width)
		}
		if lost != 0 || torn != 0 {
			t.Fatalf("DuraSSD %s-%d OFF/OFF lost %d commits, %d torn pages", layout.layout, layout.width, lost, torn)
		}
	}
}

func TestVolatileMirrorIsNotDurable(t *testing.T) {
	// Redundancy is orthogonal to cache durability: both mirror copies
	// lose their volatile caches at the same instant, so acknowledged
	// commits still disappear.
	lost, _, acked := runTrials(t, Scenario{
		Device: SSDA, Layout: Mirror, Width: 2,
		Barrier: false, DoubleWrite: false,
	}, 10)
	if acked == 0 {
		t.Fatal("no commits acknowledged before the cut")
	}
	if lost == 0 {
		t.Fatal("mirrored volatile SSDs lost nothing across 10 power cuts — mirroring must not substitute for a durable cache")
	}
}

func TestPgSQLDuraSSDFastConfigIsSafe(t *testing.T) {
	// The same headline holds for PostgreSQL: full-page writes off,
	// barriers off, and the durable cache still loses nothing.
	lost, torn, acked := runTrials(t, Scenario{
		Device: DuraSSD, Engine: EnginePgSQL, Barrier: false, DoubleWrite: false,
	}, 6)
	if acked == 0 {
		t.Fatal("no commits acknowledged before the cut")
	}
	if lost != 0 || torn != 0 {
		t.Fatalf("pgsql DuraSSD OFF/OFF lost %d commits, %d torn pages", lost, torn)
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

func TestPgSQLVolatileSSDFastConfigLosesData(t *testing.T) {
	lost, _, acked := runTrials(t, Scenario{
		Device: SSDA, Engine: EnginePgSQL, Barrier: false, DoubleWrite: false,
	}, 8)
	if acked == 0 {
		t.Fatal("no commits acknowledged before the cut")
	}
	if lost == 0 {
		t.Fatal("pgsql on a volatile SSD with barriers off lost nothing across 8 power cuts")
	}
}

func TestPgSQLVolatileSSDSafeConfigKeepsCommits(t *testing.T) {
	lost, torn, _ := runTrials(t, Scenario{
		Device: SSDA, Engine: EnginePgSQL, Barrier: true, DoubleWrite: true,
	}, 4)
	if lost != 0 || torn != 0 {
		t.Fatalf("pgsql safe config lost %d commits, %d torn pages", lost, torn)
	}
}

func TestVolatileSSDSafeConfigKeepsCommits(t *testing.T) {
	// Barriers on + double-write on protects even the volatile drive.
	lost, torn, _ := runTrials(t, Scenario{
		Device: SSDA, Barrier: true, DoubleWrite: true,
	}, 6)
	if lost != 0 {
		t.Fatalf("volatile SSD in the safe config lost %d commits", lost)
	}
	if torn != 0 {
		t.Fatalf("volatile SSD in the safe config left %d torn pages", torn)
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
