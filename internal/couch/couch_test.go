package couch

import (
	"testing"
	"time"

	"durassd/internal/host"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
)

func newStore(t *testing.T, barrier bool, batch int) (*sim.Engine, *Store, *ssd.Device) {
	t.Helper()
	eng := sim.New()
	dev, err := ssd.New(eng, ssd.DuraSSD(16))
	if err != nil {
		t.Fatal(err)
	}
	fs := host.NewFS(dev, barrier)
	st, err := Open(eng, fs, Config{Docs: 100_000, BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	return eng, st, dev
}

func TestUpdateUnitIsAbout20KBAtPaperScale(t *testing.T) {
	// At the paper's scale (millions of documents) the COW tree is four
	// levels deep and each update appends ~20 KB.
	eng := sim.New()
	dev, err := ssd.New(eng, ssd.DuraSSD(16))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(eng, host.NewFS(dev, true), Config{Docs: 2_000_000, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Depth() != 4 {
		t.Fatalf("tree depth = %d, want the paper's 4", st.Depth())
	}
	ub := st.UpdateBytes()
	if ub < 16*storage.KB || ub > 24*storage.KB {
		t.Fatalf("update unit = %d bytes, want ~20KB", ub)
	}
}

func TestBatchSizeControlsFsyncs(t *testing.T) {
	for _, batch := range []int{1, 10} {
		eng, st, _ := newStore(t, true, batch)
		eng.Go("t", func(p *sim.Proc) {
			for i := int64(0); i < 100; i++ {
				if err := st.Update(p, i); err != nil {
					t.Errorf("Update: %v", err)
					return
				}
			}
		})
		eng.Run()
		want := int64(100 / batch)
		if st.Fsyncs() != want {
			t.Fatalf("batch=%d fsyncs = %d, want %d", batch, st.Fsyncs(), want)
		}
	}
}

func TestBarrierDominatesUpdateCost(t *testing.T) {
	cost := func(barrier bool) time.Duration {
		eng, st, _ := newStore(t, barrier, 1)
		var total time.Duration
		eng.Go("t", func(p *sim.Proc) {
			start := p.Now()
			for i := int64(0); i < 50; i++ {
				if err := st.Update(p, i); err != nil {
					t.Errorf("Update: %v", err)
					return
				}
			}
			total = p.Now() - start
		})
		eng.Run()
		return total
	}
	on, off := cost(true), cost(false)
	if on < 3*off {
		t.Fatalf("barrier-on updates (%v) not much slower than barrier-off (%v)", on, off)
	}
}

func TestReadCachedVsStorage(t *testing.T) {
	eng, st, dev := newStore(t, true, 1)
	eng.Go("t", func(p *sim.Proc) {
		if err := st.Read(p, 5, true); err != nil {
			t.Errorf("cached read: %v", err)
		}
		reads := dev.Stats().ReadCommands
		if reads != 0 {
			t.Error("cached read touched storage")
		}
		if err := st.Read(p, 5, false); err != nil {
			t.Errorf("storage read: %v", err)
		}
		if dev.Stats().ReadCommands == reads {
			t.Error("storage read issued no device read")
		}
	})
	eng.Run()
}

func TestKeyRange(t *testing.T) {
	eng, st, _ := newStore(t, true, 1)
	eng.Go("t", func(p *sim.Proc) {
		if err := st.Update(p, -1); err == nil {
			t.Error("negative key accepted")
		}
		if err := st.Read(p, 1<<40, false); err == nil {
			t.Error("out-of-range key accepted")
		}
	})
	eng.Run()
}

func TestAppendLogWraps(t *testing.T) {
	// Drive enough updates to wrap the append log at least once.
	eng := sim.New()
	dev, _ := ssd.New(eng, ssd.DuraSSD(32))
	fs := host.NewFS(dev, false)
	st, err := Open(eng, fs, Config{Docs: 1_000, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	n := int(st.filePages/int64(st.pagesPerUpd)) + 50
	eng.Go("t", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := st.Update(p, int64(i%1000)); err != nil {
				t.Errorf("Update %d: %v", i, err)
				return
			}
		}
	})
	eng.Run()
	if st.wraps == 0 {
		t.Fatal("append log never wrapped")
	}
}
