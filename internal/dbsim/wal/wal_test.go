package wal

import (
	"testing"
	"time"

	"durassd/internal/host"
	"durassd/internal/sim"
	"durassd/internal/ssd"
)

func newLog(t *testing.T, barrier, realBytes bool) (*sim.Engine, *Log, *ssd.Device) {
	t.Helper()
	eng := sim.New()
	dev, err := ssd.New(eng, ssd.DuraSSD(16))
	if err != nil {
		t.Fatal(err)
	}
	fs := host.NewFS(dev, barrier)
	l, err := New(eng, fs, Config{FilePages: 1024, Files: 2, RealBytes: realBytes})
	if err != nil {
		t.Fatal(err)
	}
	return eng, l, dev
}

func TestCommitAdvancesDurableLSN(t *testing.T) {
	eng, l, _ := newLog(t, true, false)
	eng.Go("t", func(p *sim.Proc) {
		lsn := l.Append(100)
		if l.durableLSN != 0 {
			t.Error("durable before commit")
		}
		if err := l.Commit(p, lsn); err != nil {
			t.Errorf("Commit: %v", err)
		}
		if l.durableLSN < lsn {
			t.Error("commit did not advance durable LSN")
		}
	})
	eng.Run()
	if l.Flushes != 1 {
		t.Fatalf("flushes = %d", l.Flushes)
	}
}

func TestGroupCommit(t *testing.T) {
	eng, l, _ := newLog(t, true, false)
	const committers = 16
	for i := 0; i < committers; i++ {
		eng.Go("c", func(p *sim.Proc) {
			lsn := l.Append(128)
			if err := l.Commit(p, lsn); err != nil {
				t.Errorf("Commit: %v", err)
			}
		})
	}
	eng.Run()
	if l.Flushes >= committers {
		t.Fatalf("flushes = %d for %d committers; no group commit", l.Flushes, committers)
	}
	if l.GroupedCount == 0 {
		t.Fatal("no commits piggybacked")
	}
}

func TestBarrierOffCommitIsCheap(t *testing.T) {
	eng, l, dev := newLog(t, false, false)
	var cost time.Duration
	eng.Go("t", func(p *sim.Proc) {
		lsn := l.Append(128)
		start := p.Now()
		if err := l.Commit(p, lsn); err != nil {
			t.Errorf("Commit: %v", err)
		}
		cost = p.Now() - start
	})
	eng.Run()
	if dev.Stats().FlushCommands != 0 {
		t.Fatal("barrier-off commit sent flush-cache")
	}
	if cost > 500*time.Microsecond {
		t.Fatalf("barrier-off commit cost %v", cost)
	}
}

func TestCommitIdempotent(t *testing.T) {
	eng, l, _ := newLog(t, true, false)
	eng.Go("t", func(p *sim.Proc) {
		lsn := l.Append(64)
		_ = l.Commit(p, lsn)
		before := l.Flushes
		_ = l.Commit(p, lsn) // already durable
		if l.Flushes != before {
			t.Error("re-commit of durable LSN flushed again")
		}
	})
	eng.Run()
}

func TestRealBytesRoundTrip(t *testing.T) {
	eng, l, _ := newLog(t, true, true)
	eng.Go("t", func(p *sim.Proc) {
		var last uint64
		for i := uint64(1); i <= 20; i++ {
			last = l.AppendRecord(i, i*10, 64)
		}
		if err := l.Commit(p, last); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		recs, err := l.ReadAll(p)
		if err != nil {
			t.Errorf("ReadAll: %v", err)
			return
		}
		if len(recs) != 20 {
			t.Errorf("records = %d, want 20", len(recs))
			return
		}
		for i, r := range recs {
			if r.Page != uint64(i+1) || r.Version != uint64(i+1)*10 {
				t.Errorf("record %d = %+v", i, r)
				return
			}
			if i > 0 && recs[i].LSN <= recs[i-1].LSN {
				t.Error("records out of LSN order")
				return
			}
		}
	})
	eng.Run()
}

func TestUnflushedRecordsNotVisible(t *testing.T) {
	eng, l, _ := newLog(t, true, true)
	eng.Go("t", func(p *sim.Proc) {
		lsn := l.AppendRecord(1, 10, 64)
		_ = l.Commit(p, lsn)
		l.AppendRecord(2, 20, 64) // never committed
		recs, err := l.ReadAll(p)
		if err != nil {
			t.Errorf("ReadAll: %v", err)
			return
		}
		for _, r := range recs {
			if r.Page == 2 {
				t.Error("uncommitted record visible on storage")
			}
		}
	})
	eng.Run()
}

func TestLogWrapsAcrossFiles(t *testing.T) {
	eng := sim.New()
	dev, _ := ssd.New(eng, ssd.DuraSSD(16))
	fs := host.NewFS(dev, true)
	l, err := New(eng, fs, Config{FilePages: 4, Files: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng.Go("t", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			lsn := l.Append(8192) // 2 pages per record
			if err := l.Commit(p, lsn); err != nil {
				t.Errorf("Commit %d: %v", i, err)
				return
			}
		}
	})
	eng.Run()
	if l.Flushes == 0 {
		t.Fatal("no flushes")
	}
}
