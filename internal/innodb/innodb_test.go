package innodb

import (
	"testing"
	"time"

	"durassd/internal/dbsim/index"
	"durassd/internal/host"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
)

type rig struct {
	eng *sim.Engine
	dev *ssd.Device
	fs  *host.FS
	e   *Engine
	tbl *Table
}

func newRig(t *testing.T, barrier, dwb, realBytes bool) *rig {
	t.Helper()
	eng := sim.New()
	dev, err := ssd.New(eng, ssd.DuraSSD(16))
	if err != nil {
		t.Fatal(err)
	}
	fs := host.NewFS(dev, barrier)
	e, err := Open(eng, fs, fs, Config{
		PageBytes:    4 * storage.KB,
		BufferBytes:  1 * storage.MB,
		DoubleWrite:  dwb,
		DataPages:    30_000,
		LogFilePages: 4_000,
		LogFiles:     1,
		RealBytes:    realBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable("t", index.Config{RowBytes: 200, MaxRows: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkLoad(50_000); err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, dev: dev, fs: fs, e: e, tbl: tbl}
}

func TestDoubleWriteDoublesPageWrites(t *testing.T) {
	run := func(dwb bool) (pageWrites, dwbWrites int64) {
		r := newRig(t, false, dwb, false)
		r.eng.Go("t", func(p *sim.Proc) {
			for i := int64(0); i < 300; i++ {
				tx := r.e.Begin()
				if err := tx.Update(p, r.tbl, i*37%50_000); err != nil {
					t.Errorf("Update: %v", err)
					return
				}
				if err := tx.Commit(p); err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
			}
			if err := r.e.Checkpoint(p); err != nil {
				t.Errorf("Checkpoint: %v", err)
			}
		})
		r.eng.Run()
		r.e.Close()
		return r.e.PageWrites, r.e.DWBWrites
	}
	pwOff, dwOff := run(false)
	pwOn, dwOn := run(true)
	if dwOff != 0 {
		t.Fatalf("DWB writes with DWB off: %d", dwOff)
	}
	if dwOn == 0 || dwOn != pwOn {
		t.Fatalf("DWB on: page writes %d, dwb writes %d — every page must be written twice", pwOn, dwOn)
	}
	if pwOff == 0 {
		t.Fatal("no page writes at all")
	}
}

func TestBarrierCostVisibleAtCommit(t *testing.T) {
	commitCost := func(barrier bool) time.Duration {
		r := newRig(t, barrier, false, false)
		var cost time.Duration
		r.eng.Go("t", func(p *sim.Proc) {
			tx := r.e.Begin()
			if err := tx.Update(p, r.tbl, 5); err != nil {
				t.Errorf("Update: %v", err)
				return
			}
			start := p.Now()
			if err := tx.Commit(p); err != nil {
				t.Errorf("Commit: %v", err)
			}
			cost = p.Now() - start
		})
		r.eng.Run()
		r.e.Close()
		return cost
	}
	on, off := commitCost(true), commitCost(false)
	if on < 5*off {
		t.Fatalf("barrier-on commit (%v) not much slower than barrier-off (%v)", on, off)
	}
}

func TestInsertsGrowTable(t *testing.T) {
	r := newRig(t, false, false, false)
	before := r.tbl.Tree().Rows()
	r.eng.Go("t", func(p *sim.Proc) {
		tx := r.e.Begin()
		for i := int64(0); i < 10; i++ {
			if err := tx.Insert(p, r.tbl, before+i); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
		}
		if err := tx.Commit(p); err != nil {
			t.Errorf("Commit: %v", err)
		}
	})
	r.eng.Run()
	r.e.Close()
	if r.tbl.Tree().Rows() != before+10 {
		t.Fatalf("rows = %d, want %d", r.tbl.Tree().Rows(), before+10)
	}
}

func TestRealBytesTornDetection(t *testing.T) {
	// RealBytes engines stamp checksummed images; reading a page the
	// engine believes it wrote, after corrupting it on the device, must
	// fail checksum validation.
	r := newRig(t, false, false, true)
	r.eng.Go("t", func(p *sim.Proc) {
		tx := r.e.Begin()
		if err := tx.Update(p, r.tbl, 3); err != nil {
			t.Errorf("Update: %v", err)
			return
		}
		if err := tx.Commit(p); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		if err := r.e.Checkpoint(p); err != nil {
			t.Errorf("Checkpoint: %v", err)
		}
	})
	r.eng.Run()

	// Find the page the update touched and verify it parses on disk.
	r.eng.Go("verify", func(p *sim.Proc) {
		leaf := r.tbl.Tree().LeafOf(3)
		ver, ok, err := r.e.PageVersionOnDisk(p, leaf)
		if err != nil || !ok || ver == 0 {
			t.Errorf("on-disk version = %d, %v, %v", ver, ok, err)
		}
	})
	r.eng.Run()
	r.e.Close()
}

func TestScanTouchesConsecutiveLeaves(t *testing.T) {
	r := newRig(t, false, false, false)
	r.eng.Go("t", func(p *sim.Proc) {
		tx := r.e.Begin()
		// The rows before the fourth leaf fill the first three.
		tree, rows := r.tbl.Tree(), int64(0)
		for tree.LeafOf(rows) != tree.LeafOf(0)+3 {
			rows++
		}
		if err := tx.Scan(p, r.tbl, 0, rows); err != nil {
			t.Errorf("Scan: %v", err)
		}
	})
	before := r.e.Pool().Stats().Gets
	r.eng.Run()
	r.e.Close()
	gets := r.e.Pool().Stats().Gets - before
	depth := int64(r.tbl.Tree().Depth())
	if gets < depth+2 {
		t.Fatalf("scan of 3 leaves did %d gets, want >= %d", gets, depth+2)
	}
}

func TestODSyncSkipsBatchFsync(t *testing.T) {
	// With O_DSYNC the engine issues no explicit fsync on the flush path;
	// each data write carries its own barrier.
	eng := sim.New()
	dev, _ := ssd.New(eng, ssd.DuraSSD(16))
	fs := host.NewFS(dev, true)
	e, err := Open(eng, fs, fs, Config{
		PageBytes: 4 * storage.KB, BufferBytes: 256 * storage.KB,
		ODSync: true, DataPages: 30_000, LogFilePages: 4_000, LogFiles: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable("t", index.Config{RowBytes: 200, MaxRows: 100_000})
	_ = tbl.BulkLoad(50_000)
	eng.Go("t", func(p *sim.Proc) {
		tx := e.Begin()
		if err := tx.Update(p, tbl, 1); err != nil {
			t.Errorf("Update: %v", err)
			return
		}
		if err := tx.Commit(p); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		if err := e.Checkpoint(p); err != nil {
			t.Errorf("Checkpoint: %v", err)
		}
	})
	eng.Run()
	e.Close()
	// Flushes come only from the log commit and the O_DSYNC writes; the
	// engine itself must not have fdatasync'd the data file after batches.
	if dev.Stats().FlushCommands == 0 {
		t.Fatal("O_DSYNC produced no device flushes at all")
	}
}
