package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"durassd/internal/ftl"
	"durassd/internal/iotrace"
	"durassd/internal/nand"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

type rig struct {
	eng   *sim.Engine
	arr   *nand.Array
	f     *ftl.FTL
	c     *Controller
	stats *storage.Stats
}

func newRig(t *testing.T, durable bool, frames int) *rig {
	t.Helper()
	eng := sim.New()
	reg := iotrace.NewRegistry()
	stats := reg.Stats()
	a, err := nand.New(eng, nand.EnterpriseConfig(16), reg)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := ftl.DefaultConfig(a.Config().PageSize)
	if durable {
		fcfg.DumpBlocks = 16
	} else {
		fcfg.EagerMapping = true
	}
	f, err := ftl.New(a, fcfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(f)
	cfg.Durable = durable
	if frames > 0 {
		cfg.Frames = frames
	}
	c := NewController(f, cfg, reg)
	return &rig{eng: eng, arr: a, f: f, c: c, stats: stats}
}

func slotData(ss int, v byte) []byte { return bytes.Repeat([]byte{v}, ss) }

func TestWriteAcksFromCache(t *testing.T) {
	r := newRig(t, true, 0)
	var ackTime time.Duration
	r.eng.Go("w", func(p *sim.Proc) {
		if err := r.c.Write(p, iotrace.Req{}, []ftl.SlotWrite{{LPN: 1}}); err != nil {
			t.Errorf("Write: %v", err)
		}
		ackTime = p.Now()
	})
	r.eng.Run()
	// Ack must come at DRAM speed, far below the NAND program latency.
	if ackTime >= r.arr.Config().ProgramLatency {
		t.Fatalf("ack at %v, not cache-speed", ackTime)
	}
	// But the flusher must eventually program it.
	if r.stats.NANDPrograms == 0 {
		t.Fatal("flusher never programmed the page")
	}
	if (r.c.queued + r.c.inFlush) != 0 {
		t.Fatal("dirty slots remain after drain")
	}
}

func TestReadHitsCache(t *testing.T) {
	r := newRig(t, true, 0)
	ss := r.f.SlotSize()
	d := slotData(ss, 0x5a)
	r.eng.Go("rw", func(p *sim.Proc) {
		if err := r.c.Write(p, iotrace.Req{}, []ftl.SlotWrite{{LPN: 9, Data: d}}); err != nil {
			t.Errorf("Write: %v", err)
		}
		buf := make([]byte, ss)
		if err := r.c.Read(p, iotrace.Req{}, 9, buf); err != nil {
			t.Errorf("Read: %v", err)
		}
		if !bytes.Equal(buf, d) {
			t.Error("cache read returned wrong data")
		}
	})
	r.eng.Run()
	if r.stats.CacheHits == 0 {
		t.Fatal("read did not hit the cache")
	}
}

func TestReadMissGoesToFlash(t *testing.T) {
	r := newRig(t, true, 0)
	ss := r.f.SlotSize()
	d := slotData(ss, 0x77)
	if err := r.f.LoadSlots([]ftl.SlotWrite{{LPN: 33, Data: d}}); err != nil {
		t.Fatal(err)
	}
	r.eng.Go("r", func(p *sim.Proc) {
		buf := make([]byte, ss)
		if err := r.c.Read(p, iotrace.Req{}, 33, buf); err != nil {
			t.Errorf("Read: %v", err)
		}
		if !bytes.Equal(buf, d) {
			t.Error("flash read returned wrong data")
		}
	})
	r.eng.Run()
	if r.stats.CacheHits != 0 {
		t.Fatal("unexpected cache hit")
	}
	if r.stats.NANDReads == 0 {
		t.Fatal("no NAND read issued")
	}
}

func TestOverwriteCoalescesInCache(t *testing.T) {
	// Rapid overwrites of the same LPN must not multiply NAND programs:
	// old copies are discarded (paper §3.1.1 endurance point).
	r := newRig(t, true, 0)
	const n = 50
	r.eng.Go("w", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := r.c.Write(p, iotrace.Req{}, []ftl.SlotWrite{{LPN: 4}}); err != nil {
				t.Errorf("Write: %v", err)
			}
		}
	})
	r.eng.Run()
	if r.stats.CacheOverlaps == 0 {
		t.Fatal("no overlapped writes coalesced")
	}
	if r.stats.NANDPrograms >= n {
		t.Fatalf("NAND programs = %d for %d overwrites; coalescing broken", r.stats.NANDPrograms, n)
	}
}

func TestDurableFlushCacheDrainsButSkipsMapJournal(t *testing.T) {
	// DuraSSD honors flush-cache (Table 1 "ON" row), but its capacitor-
	// protected mapping table needs no journal flush.
	r := newRig(t, true, 0)
	r.eng.Go("w", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			if err := r.c.Write(p, iotrace.Req{}, []ftl.SlotWrite{{LPN: storage.LPN(i)}}); err != nil {
				t.Errorf("Write: %v", err)
			}
		}
		if err := r.c.FlushCache(p, iotrace.Req{}); err != nil {
			t.Errorf("FlushCache: %v", err)
		}
		if (r.c.queued + r.c.inFlush) != 0 {
			t.Error("flush-cache did not drain the durable cache")
		}
	})
	r.eng.Run()
	if r.stats.MapFlushPages != 0 {
		t.Fatal("durable cache journaled the mapping table")
	}
}

func TestVolatileFlushCacheDrains(t *testing.T) {
	r := newRig(t, false, 0)
	var flushTime time.Duration
	r.eng.Go("w", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			if err := r.c.Write(p, iotrace.Req{}, []ftl.SlotWrite{{LPN: storage.LPN(i)}}); err != nil {
				t.Errorf("Write: %v", err)
			}
		}
		start := p.Now()
		if err := r.c.FlushCache(p, iotrace.Req{}); err != nil {
			t.Errorf("FlushCache: %v", err)
		}
		flushTime = p.Now() - start
		if (r.c.queued + r.c.inFlush) != 0 {
			t.Error("dirty slots remain after flush-cache")
		}
	})
	r.eng.Run()
	if flushTime < r.arr.Config().ProgramLatency {
		t.Fatalf("volatile flush-cache took only %v; did not drain", flushTime)
	}
	if r.stats.MapFlushPages == 0 {
		t.Fatal("volatile flush did not journal the mapping")
	}
}

func TestWriteStallWhenCacheFull(t *testing.T) {
	// A cache of 8 frames fed 64 distinct pages must stall writers on the
	// flusher, but still complete everything.
	r := newRig(t, true, 8)
	var done int
	r.eng.Go("w", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			if err := r.c.Write(p, iotrace.Req{}, []ftl.SlotWrite{{LPN: storage.LPN(i)}}); err != nil {
				t.Errorf("Write %d: %v", i, err)
				return
			}
			done++
		}
	})
	r.eng.Run()
	if done != 64 {
		t.Fatalf("completed %d/64 writes", done)
	}
	if err := r.f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCommandTooLarge(t *testing.T) {
	r := newRig(t, true, 4)
	var err error
	r.eng.Go("w", func(p *sim.Proc) {
		slots := make([]ftl.SlotWrite, 5)
		for i := range slots {
			slots[i].LPN = storage.LPN(i)
		}
		err = r.c.Write(p, iotrace.Req{}, slots)
	})
	r.eng.Run()
	if err != ErrCommandTooLarge {
		t.Fatalf("err = %v, want ErrCommandTooLarge", err)
	}
}

func TestFlusherPairsSlots(t *testing.T) {
	// With 2 slots per physical page, N dirty slots should need about N/2
	// programs, not N.
	r := newRig(t, true, 0)
	const n = 64
	r.eng.Go("w", func(p *sim.Proc) {
		slots := make([]ftl.SlotWrite, n)
		for i := range slots {
			slots[i].LPN = storage.LPN(i)
		}
		if err := r.c.Write(p, iotrace.Req{}, slots); err != nil {
			t.Errorf("Write: %v", err)
		}
	})
	r.eng.Run()
	if r.stats.NANDPrograms > n/2+4 {
		t.Fatalf("programs = %d for %d slots; pairing broken", r.stats.NANDPrograms, n)
	}
}

func TestDurablePowerFailDumpsAndRecovers(t *testing.T) {
	r := newRig(t, true, 0)
	ss := r.f.SlotSize()
	const n = 40
	want := make(map[storage.LPN][]byte)
	r.eng.Go("w", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			lpn := storage.LPN(i)
			d := slotData(ss, byte(i+1))
			want[lpn] = d
			if err := r.c.Write(p, iotrace.Req{}, []ftl.SlotWrite{{LPN: lpn, Data: d}}); err != nil {
				return // power may hit mid-run
			}
		}
	})
	// Cut power while writes are streaming (some flushed, some cached).
	r.eng.Schedule(200*time.Microsecond, func() {
		r.arr.PowerFail()
		r.c.PowerFail()
	})
	r.eng.Run()

	if r.stats.LostPages != 0 {
		t.Fatalf("durable cache lost %d pages", r.stats.LostPages)
	}
	// Reboot: recover and verify every acknowledged write.
	r.arr.PowerOn()
	if !NeedsRecovery(r.f) && r.stats.DumpPages > 0 {
		t.Fatal("dump present but NeedsRecovery is false")
	}
	r.eng.Go("recover", func(p *sim.Proc) {
		if err := Recover(p, r.f, time.Millisecond, r.stats); err != nil {
			t.Errorf("Recover: %v", err)
			return
		}
		buf := make([]byte, ss)
		for lpn, d := range want {
			if err := r.f.ReadSlot(p, iotrace.Req{}, lpn, buf); err != nil {
				t.Errorf("read %d: %v", lpn, err)
				return
			}
			if !bytes.Equal(buf, d) {
				t.Errorf("page %d lost or corrupted after recovery", lpn)
				return
			}
		}
	})
	r.eng.Run()
	if NeedsRecovery(r.f) {
		t.Fatal("dump area not cleared after recovery")
	}
	if r.stats.Recoveries != 1 {
		t.Fatalf("recoveries = %d", r.stats.Recoveries)
	}
	if err := r.f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVolatilePowerFailLosesCachedWrites(t *testing.T) {
	r := newRig(t, false, 0)
	r.eng.Go("w", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			if err := r.c.Write(p, iotrace.Req{}, []ftl.SlotWrite{{LPN: storage.LPN(i)}}); err != nil {
				return
			}
		}
	})
	r.eng.Schedule(150*time.Microsecond, func() {
		r.arr.PowerFail()
		r.c.PowerFail()
	})
	r.eng.Run()
	if r.stats.LostPages == 0 {
		t.Fatal("volatile cache lost nothing despite power cut with dirty data")
	}
	if r.stats.DumpPages != 0 {
		t.Fatal("volatile cache produced a dump")
	}
}

func TestCapacitorBudgetTooSmall(t *testing.T) {
	// Ablation: a dump area too small for the buffer pool cannot hold the
	// whole dump; the shortfall is recorded as lost pages.
	eng := sim.New()
	reg := iotrace.NewRegistry()
	stats := reg.Stats()
	a, _ := nand.New(eng, nand.EnterpriseConfig(16), reg)
	fcfg := ftl.DefaultConfig(a.Config().PageSize)
	fcfg.DumpBlocks = 1 // 64 pages: room for fewer than 128 slots
	f, _ := ftl.New(a, fcfg, reg)
	cfg := testConfig(f)
	cfg.FlushWorkers = 1 // keep lots of data in cache
	c := NewController(f, cfg, reg)

	eng.Go("w", func(p *sim.Proc) {
		slots := make([]ftl.SlotWrite, 256)
		for i := range slots {
			slots[i].LPN = storage.LPN(i)
		}
		_ = c.Write(p, iotrace.Req{}, slots)
		a.PowerFail()
		c.PowerFail()
	})
	eng.Run()
	if stats.DumpPages == 0 {
		t.Fatal("no pages dumped at all")
	}
	if stats.LostPages == 0 {
		t.Fatal("undersized dump area lost nothing — its capacity not enforced")
	}
}

func TestAtomicWriterRollsBackIncompleteCommand(t *testing.T) {
	// Power fails while a command's data is still streaming into the
	// cache: the command must report failure and stage nothing.
	r := newRig(t, true, 0)
	var werr error
	r.eng.Go("w", func(p *sim.Proc) {
		slots := make([]ftl.SlotWrite, 32)
		for i := range slots {
			slots[i].LPN = storage.LPN(100 + i)
		}
		werr = r.c.Write(p, iotrace.Req{}, slots)
	})
	// 32 slots * 2us SlotAccess = 64us transfer; cut at 10us.
	r.eng.Schedule(10*time.Microsecond, func() {
		r.arr.PowerFail()
		r.c.PowerFail()
	})
	r.eng.Run()
	if werr != ErrPowerDuringWrite {
		t.Fatalf("err = %v, want ErrPowerDuringWrite", werr)
	}
	if r.stats.DumpPages != 0 {
		t.Fatal("incomplete command leaked into the dump")
	}
	// After reboot, none of the command's pages may exist.
	r.arr.PowerOn()
	r.eng.Go("check", func(p *sim.Proc) {
		if err := Recover(p, r.f, 0, r.stats); err != nil {
			t.Errorf("Recover: %v", err)
		}
		for i := 0; i < 32; i++ {
			if _, ok := r.f.PhysPageOf(storage.LPN(100 + i)); ok {
				t.Errorf("slot %d from rolled-back command is visible", 100+i)
				return
			}
		}
	})
	r.eng.Run()
}

func TestRecoveryIdempotent(t *testing.T) {
	// Run recovery twice; the second run must be a no-op.
	r := newRig(t, true, 0)
	r.eng.Go("w", func(p *sim.Proc) {
		_ = r.c.Write(p, iotrace.Req{}, []ftl.SlotWrite{{LPN: 7}})
		r.arr.PowerFail()
		r.c.PowerFail()
	})
	r.eng.Run()
	r.arr.PowerOn()
	r.eng.Go("recover", func(p *sim.Proc) {
		if err := Recover(p, r.f, 0, r.stats); err != nil {
			t.Errorf("first recover: %v", err)
		}
		if err := Recover(p, r.f, 0, r.stats); err != nil {
			t.Errorf("second recover: %v", err)
		}
	})
	r.eng.Run()
	if _, ok := r.f.PhysPageOf(7); !ok && r.stats.DumpPages > 0 {
		t.Fatal("recovered page lost")
	}
}

func TestRandomPowerCutsNeverLoseAckedWrites(t *testing.T) {
	// Property: for many random power-cut instants, every write that was
	// acknowledged before the cut is bit-exact after recovery.
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		eng := sim.New()
		reg := iotrace.NewRegistry()
		stats := reg.Stats()
		a, _ := nand.New(eng, nand.EnterpriseConfig(16), reg)
		fcfg := ftl.DefaultConfig(a.Config().PageSize)
		fcfg.DumpBlocks = 16
		f, _ := ftl.New(a, fcfg, reg)
		c := NewController(f, testConfig(f), reg)

		acked := make(map[storage.LPN]byte)
		ss := f.SlotSize()
		eng.Go("w", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				lpn := storage.LPN(rng.Intn(64))
				v := byte(rng.Intn(255) + 1)
				if err := c.Write(p, iotrace.Req{}, []ftl.SlotWrite{{LPN: lpn, Data: slotData(ss, v)}}); err != nil {
					return
				}
				acked[lpn] = v
			}
		})
		cut := time.Duration(rng.Intn(3000)) * time.Microsecond
		eng.Schedule(cut, func() {
			a.PowerFail()
			c.PowerFail()
		})
		eng.Run()

		a.PowerOn()
		eng.Go("verify", func(p *sim.Proc) {
			if err := Recover(p, f, 0, stats); err != nil {
				t.Errorf("trial %d: recover: %v", trial, err)
				return
			}
			buf := make([]byte, ss)
			for lpn, v := range acked {
				if err := f.ReadSlot(p, iotrace.Req{}, lpn, buf); err != nil {
					t.Errorf("trial %d: read: %v", trial, err)
					return
				}
				for _, b := range buf {
					if b != v {
						t.Errorf("trial %d (cut=%v): lpn %d = %x, want %x", trial, cut, lpn, b, v)
						return
					}
				}
			}
		})
		eng.Run()
		if stats.LostPages != 0 {
			t.Fatalf("trial %d: durable cache lost %d pages", trial, stats.LostPages)
		}
	}
}

func TestDumpRetriesTornDumpProgram(t *testing.T) {
	// Partial-dump fault: the dying supply tears a dump program mid-block.
	// The firmware sees the bad status, retries on the next pre-erased dump
	// page, and recovery still restores every acknowledged write.
	r := newRig(t, true, 0)
	ss := r.f.SlotSize()
	const n = 40
	want := make(map[storage.LPN][]byte)
	r.eng.Go("w", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			lpn := storage.LPN(i)
			d := slotData(ss, byte(i+1))
			want[lpn] = d
			if err := r.c.Write(p, iotrace.Req{}, []ftl.SlotWrite{{LPN: lpn, Data: d}}); err != nil {
				return
			}
		}
	})
	r.eng.Schedule(200*time.Microsecond, func() {
		r.arr.SetFaults(nand.Faults{DumpTearAfter: 2})
		r.arr.PowerFail()
		r.c.PowerFail()
	})
	r.eng.Run()

	if r.stats.DumpRetries == 0 {
		t.Fatal("armed dump tear produced no retry — the fault did not fire")
	}
	if r.stats.TornPages == 0 {
		t.Fatal("torn dump page not recorded")
	}
	if r.stats.LostPages != 0 {
		t.Fatalf("dump retry still lost %d pages", r.stats.LostPages)
	}

	r.arr.PowerOn()
	r.eng.Go("recover", func(p *sim.Proc) {
		if err := Recover(p, r.f, time.Millisecond, r.stats); err != nil {
			t.Errorf("Recover: %v", err)
			return
		}
		buf := make([]byte, ss)
		for lpn, d := range want {
			if err := r.f.ReadSlot(p, iotrace.Req{}, lpn, buf); err != nil {
				t.Errorf("read %d: %v", lpn, err)
				return
			}
			if !bytes.Equal(buf, d) {
				t.Errorf("page %d lost or corrupted after torn-dump recovery", lpn)
				return
			}
		}
	})
	r.eng.Run()
	if NeedsRecovery(r.f) {
		t.Fatal("dump area not cleared after recovery")
	}
	if err := r.f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// NeedsRecovery reports whether the dump area holds a power-failure dump
// (the paper's "emergent shutdown" flag: the dump's existence is the flag).
func NeedsRecovery(f *ftl.FTL) bool {
	a := f.Array()
	ppb := a.Config().PagesPerBlock
	for _, blk := range f.DumpBlockIDs() {
		first := a.PageOfBlock(blk)
		for i := 0; i < ppb; i++ {
			if m := a.Meta(first + nand.PPN(i)); m != nil && m.Dump {
				return true
			}
		}
	}
	return false
}

// testConfig is the durable cache these tests run over f: 4,096 frames and
// one flush worker per plane. Its 20 µs FlushAck is a test value; the
// device every tool runs is ssd.DuraSSD's profile.
func testConfig(f *ftl.FTL) Config {
	return Config{
		Frames:         4096, // 16 MB of 4 KB frames
		Durable:        true,
		FlushWorkers:   f.Array().Config().Planes(),
		SlotAccess:     2 * time.Microsecond,
		FlushAck:       20 * time.Microsecond,
		RebootRecharge: 100 * time.Millisecond,
	}
}
