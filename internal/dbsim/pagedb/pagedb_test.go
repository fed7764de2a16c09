package pagedb_test

import (
	"testing"

	"durassd/internal/dbsim/buffer"
	"durassd/internal/dbsim/index"
	"durassd/internal/dbsim/pagedb"
	"durassd/internal/host"
	"durassd/internal/innodb"
	"durassd/internal/pgsql"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
)

// The behaviour every profile shares is tested once here, over each of them.
type profile struct {
	name         string
	open, reopen func(*sim.Engine, *host.FS, *host.FS, pagedb.Config) (*pagedb.Engine, error)
	protect      func(*pagedb.Config) // switches the profile's torn-page protection on
}

var profiles = []profile{
	{"innodb", innodb.Open, innodb.Reopen, func(c *pagedb.Config) { c.DoubleWrite = true }},
	{"pgsql", pgsql.Open, pgsql.Reopen, func(c *pagedb.Config) { c.FullPageWrites = true }},
}

// eachProfile runs test as one subtest per profile.
func eachProfile(t *testing.T, test func(t *testing.T, pr profile)) {
	for _, pr := range profiles {
		t.Run(pr.name, func(t *testing.T) { test(t, pr) })
	}
}

type rig struct {
	eng *sim.Engine
	dev *ssd.Device
	fs  *host.FS
	cfg pagedb.Config
	e   *pagedb.Engine
	tbl *pagedb.Table
}

// newRig opens profile pr on a DuraSSD with a loaded 50,000-row table.
func newRig(t *testing.T, pr profile, barrier, protect, realBytes bool) *rig {
	t.Helper()
	eng := sim.New()
	dev, err := ssd.New(eng, ssd.DuraSSD(16))
	if err != nil {
		t.Fatal(err)
	}
	fs := host.NewFS(dev, barrier)
	cfg := pagedb.Config{
		PageBytes:    4 * storage.KB,
		BufferBytes:  1 * storage.MB,
		DataPages:    30_000,
		LogFilePages: 4_000,
		LogFiles:     1,
		RealBytes:    realBytes,
	}
	if protect {
		pr.protect(&cfg)
	}
	e, err := pr.open(eng, fs, fs, cfg)
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
	return &rig{eng: eng, dev: dev, fs: fs, cfg: cfg, e: e, tbl: tbl}
}

func TestLookupUpdateCommit(t *testing.T) {
	eachProfile(t, func(t *testing.T, pr profile) {
		r := newRig(t, pr, false, false, false)
		r.eng.Go("t", func(p *sim.Proc) {
			tx := r.e.Begin()
			if err := tx.Lookup(p, r.tbl, 123); err != nil {
				t.Errorf("Lookup: %v", err)
			}
			if err := tx.Update(p, r.tbl, 123); err != nil {
				t.Errorf("Update: %v", err)
			}
			if err := tx.Commit(p); err != nil {
				t.Errorf("Commit: %v", err)
			}
		})
		r.eng.Run()
		r.e.Close()
		if r.e.Commits != 1 {
			t.Fatalf("commits = %d", r.e.Commits)
		}
		if r.e.Log().Records == 0 {
			t.Fatal("no redo records")
		}
		if r.e.Pool().Stats().Gets == 0 {
			t.Fatal("no buffer activity")
		}
	})
}

func TestReadOnlyCommitIsFree(t *testing.T) {
	eachProfile(t, func(t *testing.T, pr profile) {
		r := newRig(t, pr, true, true, false)
		r.eng.Go("t", func(p *sim.Proc) {
			tx := r.e.Begin()
			if err := tx.Lookup(p, r.tbl, 1); err != nil {
				t.Errorf("Lookup: %v", err)
			}
			if err := tx.Commit(p); err != nil {
				t.Errorf("Commit: %v", err)
			}
		})
		r.eng.Run()
		r.e.Close()
		if r.e.Log().Flushes != 0 {
			t.Fatal("read-only commit flushed the log")
		}
	})
}

func TestWALBeforeData(t *testing.T) {
	// Flushing a dirty page must first make the log durable up to the
	// page's LSN.
	eachProfile(t, func(t *testing.T, pr profile) {
		r := newRig(t, pr, true, false, false)
		r.eng.Go("t", func(p *sim.Proc) {
			tx := r.e.Begin()
			if err := tx.Update(p, r.tbl, 7); err != nil {
				t.Errorf("Update: %v", err)
				return
			}
			// No commit: log tail is volatile. Force the page out.
			if err := r.e.Checkpoint(p); err != nil {
				t.Errorf("Checkpoint: %v", err)
				return
			}
			// The redo is durable already: committing up to the page's LSN
			// flushes nothing more.
			log := r.e.Log()
			flushes := log.Flushes
			if err := log.Commit(p, tx.MaxLSN()); err != nil {
				t.Errorf("Commit: %v", err)
				return
			}
			if log.Flushes != flushes {
				t.Error("page flushed before its redo was durable")
			}
		})
		r.eng.Run()
		r.e.Close()
	})
}

func TestCrashRecoveryRedo(t *testing.T) {
	// Commit a change, crash before the page is flushed, recover: redo
	// must roll the page forward.
	eachProfile(t, func(t *testing.T, pr profile) {
		r := newRig(t, pr, false, false, true)
		var wantPage buffer.PageID
		var wantVer uint64
		r.eng.Go("t", func(p *sim.Proc) {
			tx := r.e.Begin()
			if err := tx.Update(p, r.tbl, 999); err != nil {
				t.Errorf("Update: %v", err)
				return
			}
			if err := tx.Commit(p); err != nil {
				t.Errorf("Commit: %v", err)
				return
			}
			for _, pv := range tx.Touched() {
				wantPage, wantVer = pv.ID, pv.Version
			}
			// Crash without flushing the buffer pool.
			r.dev.PowerFail()
		})
		r.eng.Run()
		r.e.Close()

		r.eng.Go("recover", func(p *sim.Proc) {
			if err := r.dev.Reboot(p); err != nil {
				t.Errorf("Reboot: %v", err)
				return
			}
			e2, err := pr.reopen(r.eng, r.fs, r.fs, r.cfg)
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
			if rep.RedoApplied == 0 {
				t.Error("recovery applied no redo despite unflushed commit")
			}
			ver, ok, err := e2.PageVersionOnDisk(p, wantPage)
			if err != nil || !ok || ver < wantVer {
				t.Errorf("page %d version after redo = %d (%v, %v), want >= %d", wantPage, ver, ok, err, wantVer)
			}
		})
		r.eng.Run()
	})
}
