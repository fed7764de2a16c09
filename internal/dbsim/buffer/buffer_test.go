package buffer

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
	"time"

	"durassd/internal/sim"
)

// fakeIO counts reads/writes and charges a fixed latency.
type fakeIO struct {
	eng      *sim.Engine
	readLat  time.Duration
	writeLat time.Duration
	reads    int
	writes   int
	written  map[PageID]int
}

func newFakeIO(eng *sim.Engine) *fakeIO {
	return &fakeIO{eng: eng, readLat: 100 * time.Microsecond, writeLat: 200 * time.Microsecond,
		written: make(map[PageID]int)}
}

func (f *fakeIO) ReadPage(p *sim.Proc, id PageID, buf []byte) error {
	f.reads++
	p.Sleep(f.readLat)
	return nil
}

func (f *fakeIO) WritePages(p *sim.Proc, pages []PageWrite) error {
	f.writes++
	for _, pg := range pages {
		f.written[pg.ID]++
	}
	p.Sleep(f.writeLat)
	return nil
}

func newPool(t *testing.T, eng *sim.Engine, frames int, io *fakeIO) *Pool {
	t.Helper()
	bp, err := New(eng, Config{Frames: frames, PageBytes: 4096, CleanerInterval: time.Millisecond}, io, io)
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func TestHitAndMissAccounting(t *testing.T) {
	eng := sim.New()
	io := newFakeIO(eng)
	bp := newPool(t, eng, 8, io)
	eng.Go("t", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			fr, err := bp.Get(p, 7)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			bp.Unpin(fr)
		}
	})
	eng.Run()
	st := bp.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("hits/misses = %d/%d", st.Hits, st.Misses)
	}
	if io.reads != 1 {
		t.Fatalf("device reads = %d", io.reads)
	}
}

func TestEvictionLRUOrder(t *testing.T) {
	eng := sim.New()
	io := newFakeIO(eng)
	bp := newPool(t, eng, 3, io)
	eng.Go("t", func(p *sim.Proc) {
		for _, id := range []PageID{1, 2, 3} {
			fr, _ := bp.Get(p, id)
			bp.Unpin(fr)
		}
		// Touch 1 so it becomes MRU; adding 4 must evict 2.
		fr, _ := bp.Get(p, 1)
		bp.Unpin(fr)
		fr, _ = bp.Get(p, 4)
		bp.Unpin(fr)
		// 2 should now miss, 1 and 3... 3 was evicted? order: LRU=2.
		before := bp.Stats().Misses
		fr, _ = bp.Get(p, 1)
		bp.Unpin(fr)
		if bp.Stats().Misses != before {
			t.Error("page 1 was evicted despite being MRU")
		}
		fr, _ = bp.Get(p, 2)
		bp.Unpin(fr)
		if bp.Stats().Misses != before+1 {
			t.Error("page 2 (LRU) was not evicted")
		}
	})
	eng.Run()
}

func TestDirtyEvictionBlocksReader(t *testing.T) {
	// Figure 1: a read that needs a frame must first write back the dirty
	// victim, paying the write latency before the read latency.
	eng := sim.New()
	io := newFakeIO(eng)
	bp := newPool(t, eng, 1, io)
	var elapsed time.Duration
	eng.Go("t", func(p *sim.Proc) {
		fr, _ := bp.Get(p, 1)
		bp.MarkDirty(fr, 1)
		bp.Unpin(fr)
		start := p.Now()
		fr2, err := bp.Get(p, 2)
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		bp.Unpin(fr2)
		elapsed = p.Now() - start
	})
	eng.Run()
	if elapsed < io.writeLat+io.readLat {
		t.Fatalf("read of page 2 took %v; must include victim write-back", elapsed)
	}
	if bp.Stats().DirtyEvictions != 1 {
		t.Fatalf("dirty evictions = %d", bp.Stats().DirtyEvictions)
	}
}

func TestConcurrentMissesShareOneRead(t *testing.T) {
	eng := sim.New()
	io := newFakeIO(eng)
	bp := newPool(t, eng, 8, io)
	for i := 0; i < 5; i++ {
		eng.Go("r", func(p *sim.Proc) {
			fr, err := bp.Get(p, 9)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			bp.Unpin(fr)
		})
	}
	eng.Run()
	if io.reads != 1 {
		t.Fatalf("concurrent faults issued %d reads, want 1", io.reads)
	}
}

func TestCleanerFlushesAboveThreshold(t *testing.T) {
	eng := sim.New()
	io := newFakeIO(eng)
	bp, err := New(eng, Config{
		Frames: 10, PageBytes: 4096,
		CleanerInterval: 100 * time.Microsecond,
	}, io, io)
	if err != nil {
		t.Fatal(err)
	}
	eng.Go("t", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			fr, _ := bp.Get(p, PageID(i))
			bp.MarkDirty(fr, uint64(i+1))
			bp.Unpin(fr)
		}
		p.Sleep(5 * time.Millisecond) // 8 of 10 dirty is above the 50 % threshold
	})
	eng.Run()
	if bp.Stats().CleanerFlushes == 0 {
		t.Fatal("cleaner never flushed above threshold")
	}
}

func TestFlushAllDrains(t *testing.T) {
	eng := sim.New()
	io := newFakeIO(eng)
	bp := newPool(t, eng, 16, io)
	eng.Go("t", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			fr, _ := bp.Get(p, PageID(i))
			bp.MarkDirty(fr, uint64(i+1))
			bp.Unpin(fr)
		}
		if err := bp.FlushAll(p); err != nil {
			t.Errorf("FlushAll: %v", err)
		}
		if bp.dirty != 0 {
			t.Errorf("dirty pages = %d after FlushAll", bp.dirty)
		}
	})
	eng.Run()
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	eng := sim.New()
	io := newFakeIO(eng)
	bp := newPool(t, eng, 2, io)
	eng.Go("t", func(p *sim.Proc) {
		pinned, _ := bp.Get(p, 1)
		fr, _ := bp.Get(p, 2)
		bp.Unpin(fr)
		// Getting page 3 must evict 2, never pinned 1.
		fr3, err := bp.Get(p, 3)
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		bp.Unpin(fr3)
		before := bp.Stats().Misses
		same, _ := bp.Get(p, 1)
		if bp.Stats().Misses != before {
			t.Error("pinned page was evicted")
		}
		bp.Unpin(same)
		bp.Unpin(pinned)
	})
	eng.Run()
}

func TestMissRatio(t *testing.T) {
	eng := sim.New()
	io := newFakeIO(eng)
	bp := newPool(t, eng, 4, io)
	eng.Go("t", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			fr, _ := bp.Get(p, PageID(i))
			bp.Unpin(fr)
		}
		for i := 0; i < 12; i++ {
			fr, _ := bp.Get(p, PageID(i%4))
			bp.Unpin(fr)
		}
	})
	eng.Run()
	if st := bp.Stats(); st.Gets != 16 || st.Misses != 4 {
		t.Fatalf("%d misses in %d gets, want 4 in 16 (miss ratio 0.25)", st.Misses, st.Gets)
	}
}

// TestLRUMatchesListModel drives a pool through a random Get/Unpin/MarkDirty
// sequence beside a container/list model of the LRU policy it replaced —
// front MRU, victim the unpinned frame nearest the back, a dirty one
// written back first — and requires the same order after every step and
// the same victim on every miss.
func TestLRUMatchesListModel(t *testing.T) {
	const frames, pageIDs, steps = 6, 24, 5_000
	eng := sim.New()
	defer eng.Close()
	io := newFakeIO(eng)
	bp, err := New(eng, Config{Frames: frames, PageBytes: 4096}, io, io)
	if err != nil {
		t.Fatal(err)
	}
	lru := list.New() // front = MRU
	elems := map[PageID]*list.Element{}
	pins := map[PageID]int{}
	var pinned []*Frame
	rng := rand.New(rand.NewSource(7))
	eng.Go("t", func(p *sim.Proc) {
		for step := 0; step < steps; step++ {
			switch r := rng.Intn(10); {
			case r < 6 || len(pinned) == 0:
				id := PageID(rng.Intn(pageIDs))
				held := 0
				for _, n := range pins {
					held += min(n, 1)
				}
				if held == frames && pins[id] == 0 {
					continue // a miss needs an unpinned victim, or it waits forever
				}
				victim := PageID(-1)
				if e, ok := elems[id]; ok {
					lru.MoveToFront(e)
				} else {
					if lru.Len() == frames {
						for e := lru.Back(); e != nil; e = e.Prev() {
							if v := e.Value.(PageID); pins[v] == 0 {
								victim = v
								lru.Remove(e)
								delete(elems, v)
								break
							}
						}
					}
					elems[id] = lru.PushFront(id)
				}
				fr, err := bp.Get(p, id)
				if err != nil {
					t.Errorf("step %d: Get(%d): %v", step, id, err)
					return
				}
				if victim >= 0 {
					if _, ok := bp.frames[victim]; ok {
						t.Errorf("step %d: miss on %d kept page %d, the model's victim", step, id, victim)
						return
					}
				}
				pins[id]++
				pinned = append(pinned, fr)
			case r < 8:
				bp.MarkDirty(pinned[rng.Intn(len(pinned))], uint64(step))
			default:
				i := rng.Intn(len(pinned))
				fr := pinned[i]
				pinned = append(pinned[:i], pinned[i+1:]...)
				pins[fr.id]--
				bp.Unpin(fr)
			}
			var got, want []PageID
			for i := bp.newest; i != none; i = bp.slab[i].older {
				got = append(got, bp.slab[i].id)
			}
			for e := lru.Front(); e != nil; e = e.Next() {
				want = append(want, e.Value.(PageID))
			}
			if !slices.Equal(got, want) {
				t.Errorf("step %d: LRU order %v, model %v", step, got, want)
				return
			}
		}
	})
	eng.Run()
	if st := bp.Stats(); st.Evictions == 0 || st.DirtyEvictions == 0 {
		t.Fatalf("sequence never evicted a clean and a dirty victim: %+v", *st)
	}
}
