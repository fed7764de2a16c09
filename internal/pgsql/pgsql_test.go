package pgsql

import (
	"testing"
	"time"

	"durassd/internal/dbsim/buffer"
	"durassd/internal/dbsim/index"
	"durassd/internal/host"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
)

func newRig(t *testing.T, kind string, barrier, fpw, realBytes bool) (*sim.Engine, *ssd.Device, *host.FS, *Engine, *Table, Config) {
	t.Helper()
	eng := sim.New()
	var prof ssd.Profile
	if kind == "dura" {
		prof = ssd.DuraSSD(16)
	} else {
		prof = ssd.SSDA(16)
	}
	dev, err := ssd.New(eng, prof)
	if err != nil {
		t.Fatal(err)
	}
	fs := host.NewFS(dev, barrier)
	cfg := Config{
		PageBytes:          8 * storage.KB,
		BufferBytes:        512 * storage.KB,
		DataPages:          15_000,
		FullPageWrites:     fpw,
		CheckpointWALBytes: 2 * storage.MB,
		LogFilePages:       6_000,
		LogFiles:           1,
		RealBytes:          realBytes,
	}
	e, err := Open(eng, fs, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable("t", index.Config{RowBytes: 300, MaxRows: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkLoad(30_000); err != nil {
		t.Fatal(err)
	}
	return eng, dev, fs, e, tbl, cfg
}

func TestFullPageWritesLogOnceUntilCheckpoint(t *testing.T) {
	eng, _, _, e, tbl, _ := newRig(t, "dura", false, true, false)
	eng.Go("t", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			tx := e.Begin()
			if err := tx.Update(p, tbl, 42); err != nil {
				t.Errorf("Update: %v", err)
				return
			}
			if err := tx.Commit(p); err != nil {
				t.Errorf("Commit: %v", err)
				return
			}
		}
		if e.FPWImages != 1 {
			t.Errorf("FPW images = %d after 5 updates of one page, want 1", e.FPWImages)
		}
		if err := e.Checkpoint(p); err != nil {
			t.Errorf("Checkpoint: %v", err)
			return
		}
		tx := e.Begin()
		_ = tx.Update(p, tbl, 42)
		_ = tx.Commit(p)
		if e.FPWImages != 2 {
			t.Errorf("FPW images = %d after checkpoint re-arm, want 2", e.FPWImages)
		}
	})
	eng.Run()
	e.Close()
}

func TestFPWInflatesLogVolume(t *testing.T) {
	run := func(fpw bool) int64 {
		eng, _, _, e, tbl, _ := newRig(t, "dura", false, fpw, false)
		eng.Go("t", func(p *sim.Proc) {
			for i := int64(0); i < 400; i++ {
				tx := e.Begin()
				if err := tx.Update(p, tbl, i*73%30_000); err != nil {
					t.Errorf("Update: %v", err)
					return
				}
				if err := tx.Commit(p); err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
			}
		})
		eng.Run()
		e.Close()
		return e.Log().BytesLogged
	}
	with, without := run(true), run(false)
	if with < 5*without {
		t.Fatalf("FPW log volume %d not >> %d; the paper's §2.1 cost is missing", with, without)
	}
}

func TestCheckpointTriggersOnWALBudget(t *testing.T) {
	eng, _, _, e, tbl, _ := newRig(t, "dura", false, true, false)
	eng.Go("t", func(p *sim.Proc) {
		for i := int64(0); i < 600; i++ {
			tx := e.Begin()
			if err := tx.Update(p, tbl, i*37%30_000); err != nil {
				t.Errorf("Update: %v", err)
				return
			}
			if err := tx.Commit(p); err != nil {
				t.Errorf("Commit: %v", err)
				return
			}
		}
	})
	eng.Run()
	e.Close()
	if e.Checkpoints == 0 {
		t.Fatal("WAL budget never triggered a checkpoint")
	}
}

// crashOnce runs updates on a volatile SSD with barriers ON, cuts power
// mid-run, recovers, and reports the recovery outcome.
func crashOnce(t *testing.T, fpw bool, seed int64) (*RecoveryReport, int, int) {
	t.Helper()
	eng, dev, fs, e, tbl, cfg := newRig(t, "ssda", true, fpw, true)
	acked := make(map[buffer.PageID]uint64)
	ackedN := 0
	for c := 0; c < 8; c++ {
		c := c
		eng.Go("w", func(p *sim.Proc) {
			for i := int64(0); i < 800; i++ {
				tx := e.Begin()
				if err := tx.Update(p, tbl, (int64(c)*7919+i*131)%30_000); err != nil {
					return
				}
				if err := tx.Commit(p); err != nil {
					return
				}
				for _, pv := range tx.Touched() {
					if pv.Version > acked[pv.ID] {
						acked[pv.ID] = pv.Version
					}
				}
				ackedN++
			}
		})
	}
	eng.Schedule(time.Duration(30+seed*37%400)*time.Millisecond, func() { dev.PowerFail() })
	eng.Run()
	e.Close()

	var rep *RecoveryReport
	lost := 0
	eng.Go("r", func(p *sim.Proc) {
		if err := dev.Reboot(p); err != nil {
			t.Errorf("Reboot: %v", err)
			return
		}
		e2, err := Reopen(eng, fs, fs, cfg)
		if err != nil {
			t.Errorf("Reopen: %v", err)
			return
		}
		defer e2.Close()
		rep, err = e2.Recover(p)
		if err != nil {
			t.Errorf("Recover: %v", err)
			return
		}
		for id, want := range acked {
			got, ok, err := e2.PageVersionOnDisk(p, id)
			if err != nil {
				t.Errorf("probe: %v", err)
				return
			}
			if !ok || got < want {
				lost++
			}
		}
	})
	eng.Run()
	return rep, lost, ackedN
}

func TestFPWProtectsVolatileSSDWithBarriers(t *testing.T) {
	// Barriers on + full-page writes: the paper's safe PostgreSQL config.
	for seed := int64(0); seed < 8; seed++ {
		rep, lost, acked := crashOnce(t, true, seed)
		if rep == nil {
			t.Fatal("no recovery report")
		}
		if acked == 0 {
			t.Fatal("nothing acknowledged before the cut")
		}
		if lost != 0 || rep.TornUnrepaired != 0 {
			t.Fatalf("seed %d: lost=%d tornUnrepaired=%d in the safe config", seed, lost, rep.TornUnrepaired)
		}
	}
}

func TestNoFPWOnTornDeviceEventuallyCorrupts(t *testing.T) {
	// full_page_writes off on a device that tears pages: across enough
	// cuts, some torn page must be unrepairable (the §2.1 hazard).
	tornTotal := 0
	for seed := int64(0); seed < 20; seed++ {
		rep, _, _ := crashOnce(t, false, seed)
		if rep != nil {
			tornTotal += rep.TornUnrepaired
		}
	}
	if tornTotal == 0 {
		t.Fatal("no unrepairable torn pages across 20 cuts without FPW — the hazard is not modeled")
	}
}

func TestDuraSSDMakesFPWRedundant(t *testing.T) {
	// On DuraSSD (no torn pages ever) the engine can run FPW-off safely.
	eng, dev, fs, e, tbl, cfg := newRig(t, "dura", false, false, true)
	acked := make(map[buffer.PageID]uint64)
	eng.Go("w", func(p *sim.Proc) {
		for i := int64(0); i < 200; i++ {
			tx := e.Begin()
			if err := tx.Update(p, tbl, i*131%30_000); err != nil {
				return
			}
			if err := tx.Commit(p); err != nil {
				return
			}
			for _, pv := range tx.Touched() {
				if pv.Version > acked[pv.ID] {
					acked[pv.ID] = pv.Version
				}
			}
		}
	})
	eng.Schedule(4*time.Millisecond, func() { dev.PowerFail() })
	eng.Run()
	e.Close()

	eng.Go("r", func(p *sim.Proc) {
		if err := dev.Reboot(p); err != nil {
			t.Errorf("Reboot: %v", err)
			return
		}
		e2, err := Reopen(eng, fs, fs, cfg)
		if err != nil {
			t.Errorf("Reopen: %v", err)
			return
		}
		defer e2.Close()
		rep, err := e2.Recover(p)
		if err != nil {
			t.Errorf("Recover: %v", err)
			return
		}
		if rep.TornUnrepaired != 0 {
			t.Errorf("torn pages on DuraSSD: %d", rep.TornUnrepaired)
		}
		for id, want := range acked {
			got, ok, err := e2.PageVersionOnDisk(p, id)
			if err != nil || !ok || got < want {
				t.Errorf("acked page %d lost (got %d ok=%v err=%v, want %d)", id, got, ok, err, want)
				return
			}
		}
	})
	eng.Run()
}
