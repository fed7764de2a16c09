package ftl

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/nand"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

func newTestFTL(t *testing.T, eng *sim.Engine, cfg Config) *FTL {
	t.Helper()
	ncfg := nand.EnterpriseConfig(16) // 16 blocks/plane, 32 planes, 64 pages/block
	reg := iotrace.NewRegistry()
	a, err := nand.New(eng, ncfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(a, cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fillHalfLive programs LPNs 0..n-1, n being one block's slots, onto plane
// 0 and then rewrites the first half there: block 0 of plane 0 becomes the
// plane's only closed block, half live. Slot lpn holds bytes of lpn, and
// of lpn^0xff once rewritten.
func fillHalfLive(p *sim.Proc, f *FTL) error {
	spp, ss := f.SlotsPerPage(), f.SlotSize()
	n := f.a.Config().PagesPerBlock * spp
	for i := 0; i < n+n/2; i += spp {
		batch := make([]SlotWrite, spp)
		for j := range batch {
			lpn := (i + j) % n
			batch[j] = SlotWrite{LPN: storage.LPN(lpn), Data: bytes.Repeat([]byte{byte(lpn) ^ byte(i/n*0xff)}, ss)}
		}
		f.nextPlane = 0
		if err := f.Program(p, iotrace.Req{}, batch); err != nil {
			return err
		}
	}
	return nil
}

func defaultTestConfig() Config {
	cfg := DefaultConfig(8 * storage.KB)
	return cfg
}

func TestNewValidation(t *testing.T) {
	eng := sim.New()
	ncfg := nand.EnterpriseConfig(16)
	a, _ := nand.New(eng, ncfg, iotrace.NewRegistry())

	bad := defaultTestConfig()
	bad.SlotsPerPage = 3
	if _, err := New(a, bad, iotrace.NewRegistry()); err == nil {
		t.Fatal("expected error for non-dividing SlotsPerPage")
	}
	bad = defaultTestConfig()
	bad.GCThresholdBlocks = 1
	if _, err := New(a, bad, iotrace.NewRegistry()); err == nil {
		t.Fatal("expected error for GC threshold < 2")
	}
	bad = defaultTestConfig()
	bad.DumpBlocks = ncfg.Blocks()
	if _, err := New(a, bad, iotrace.NewRegistry()); err == nil {
		t.Fatal("expected error for dump area swallowing the device")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	eng := sim.New()
	f := newTestFTL(t, eng, defaultTestConfig())
	ss := f.SlotSize()
	d1 := bytes.Repeat([]byte{0x11}, ss)
	d2 := bytes.Repeat([]byte{0x22}, ss)
	eng.Go("io", func(p *sim.Proc) {
		if err := f.Program(p, iotrace.Req{}, []SlotWrite{{LPN: 10, Data: d1}, {LPN: 20, Data: d2}}); err != nil {
			t.Errorf("Program: %v", err)
		}
		buf := make([]byte, ss)
		if err := f.ReadSlot(p, iotrace.Req{}, 10, buf); err != nil || !bytes.Equal(buf, d1) {
			t.Errorf("slot 10 mismatch (err=%v)", err)
		}
		if err := f.ReadSlot(p, iotrace.Req{}, 20, buf); err != nil || !bytes.Equal(buf, d2) {
			t.Errorf("slot 20 mismatch (err=%v)", err)
		}
	})
	eng.Run()
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOverwriteRemapsAndInvalidates(t *testing.T) {
	eng := sim.New()
	f := newTestFTL(t, eng, defaultTestConfig())
	ss := f.SlotSize()
	old := bytes.Repeat([]byte{0xaa}, ss)
	newer := bytes.Repeat([]byte{0xbb}, ss)
	eng.Go("io", func(p *sim.Proc) {
		if err := f.Program(p, iotrace.Req{}, []SlotWrite{{LPN: 5, Data: old}}); err != nil {
			t.Errorf("first: %v", err)
		}
		if err := f.Program(p, iotrace.Req{}, []SlotWrite{{LPN: 5, Data: newer}}); err != nil {
			t.Errorf("second: %v", err)
		}
		buf := make([]byte, ss)
		if err := f.ReadSlot(p, iotrace.Req{}, 5, buf); err != nil || !bytes.Equal(buf, newer) {
			t.Errorf("read after overwrite (err=%v)", err)
		}
	})
	eng.Run()
	if f.liveSlots != 1 {
		t.Fatalf("live slots = %d, want 1", f.liveSlots)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnmappedReadsZero(t *testing.T) {
	eng := sim.New()
	f := newTestFTL(t, eng, defaultTestConfig())
	eng.Go("io", func(p *sim.Proc) {
		buf := bytes.Repeat([]byte{0xff}, f.SlotSize())
		if err := f.ReadSlot(p, iotrace.Req{}, 99, buf); err != nil {
			t.Errorf("read: %v", err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Error("unmapped slot not zero-filled")
				break
			}
		}
	})
	eng.Run()
	if eng.Now() != 0 {
		t.Fatal("unmapped read consumed device time")
	}
}

func TestGarbageCollectionReclaimsSpace(t *testing.T) {
	eng := sim.New()
	cfg := defaultTestConfig()
	cfg.OverProvisionPct = 25
	f := newTestFTL(t, eng, cfg)
	// Hammer a small logical range; the device must GC and survive far more
	// writes than raw capacity.
	writes := int(f.LogicalSlots()) * 3
	hot := int64(f.LogicalSlots() / 4)
	rng := rand.New(rand.NewSource(1))
	eng.Go("hammer", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			lpn := storage.LPN(rng.Int63n(hot))
			if err := f.Program(p, iotrace.Req{}, []SlotWrite{{LPN: lpn}}); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	})
	eng.Run()
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := f.Array()
	_ = st
	if f.stats.NANDErases == 0 {
		t.Fatal("no erases: GC never ran")
	}
	if f.stats.GCPrograms == 0 {
		t.Fatal("no GC relocations recorded")
	}
}

func TestGCPreservesData(t *testing.T) {
	eng := sim.New()
	cfg := defaultTestConfig()
	cfg.OverProvisionPct = 25
	f := newTestFTL(t, eng, cfg)
	ss := f.SlotSize()
	// Write a set of cold pages with known data, then hammer hot pages to
	// force GC; cold data must survive relocation bit-exactly.
	cold := 64
	want := make(map[storage.LPN][]byte)
	eng.Go("io", func(p *sim.Proc) {
		for i := 0; i < cold; i++ {
			lpn := storage.LPN(i)
			d := bytes.Repeat([]byte{byte(i + 1)}, ss)
			want[lpn] = d
			if err := f.Program(p, iotrace.Req{}, []SlotWrite{{LPN: lpn, Data: d}}); err != nil {
				t.Errorf("cold write: %v", err)
				return
			}
		}
		hotBase := storage.LPN(cold)
		hotRange := f.LogicalSlots()/4 - int64(cold)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < int(f.LogicalSlots())*2; i++ {
			lpn := hotBase + storage.LPN(rng.Int63n(hotRange))
			if err := f.Program(p, iotrace.Req{}, []SlotWrite{{LPN: lpn}}); err != nil {
				t.Errorf("hot write: %v", err)
				return
			}
		}
		buf := make([]byte, ss)
		for lpn, d := range want {
			if err := f.ReadSlot(p, iotrace.Req{}, lpn, buf); err != nil {
				t.Errorf("read %d: %v", lpn, err)
				return
			}
			if !bytes.Equal(buf, d) {
				t.Errorf("cold page %d corrupted by GC", lpn)
				return
			}
		}
	})
	eng.Run()
	if f.stats.GCPrograms == 0 {
		t.Fatal("test did not exercise GC")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMapJournalFlush(t *testing.T) {
	eng := sim.New()
	f := newTestFTL(t, eng, defaultTestConfig())
	eng.Go("io", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err := f.Program(p, iotrace.Req{}, []SlotWrite{{LPN: storage.LPN(i)}}); err != nil {
				t.Errorf("write: %v", err)
			}
		}
		if f.dirtyMapEntries != 10 {
			t.Errorf("dirty entries = %d, want 10", f.dirtyMapEntries)
		}
		if err := f.FlushMapJournal(p, iotrace.Req{}); err != nil {
			t.Errorf("flush: %v", err)
		}
		if f.dirtyMapEntries != 0 {
			t.Error("dirty entries not cleared")
		}
	})
	eng.Run()
	if f.stats.MapFlushPages == 0 {
		t.Fatal("no journal pages programmed")
	}
	// Flushing a clean journal is free.
	before := f.stats.MapFlushPages
	eng.Go("io2", func(p *sim.Proc) {
		if err := f.FlushMapJournal(p, iotrace.Req{}); err != nil {
			t.Errorf("noop flush: %v", err)
		}
	})
	eng.Run()
	if f.stats.MapFlushPages != before {
		t.Fatal("clean journal flush programmed pages")
	}
}

func TestDumpBlocksReservedAndExcluded(t *testing.T) {
	eng := sim.New()
	cfg := defaultTestConfig()
	cfg.DumpBlocks = 8
	f := newTestFTL(t, eng, cfg)
	ids := f.DumpBlockIDs()
	if len(ids) != 8 {
		t.Fatalf("dump blocks = %d, want 8", len(ids))
	}
	// Fill most of the device (unpaired writes burn a whole physical page
	// per slot, so stay below the paired-capacity ceiling); no program may
	// land in a dump block.
	eng.Go("io", func(p *sim.Proc) {
		for i := int64(0); i < f.LogicalSlots()*6/10; i++ {
			if err := f.Program(p, iotrace.Req{}, []SlotWrite{{LPN: storage.LPN(i)}}); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	})
	eng.Run()
	for _, blk := range ids {
		first := f.Array().PageOfBlock(blk)
		for i := 0; i < f.Array().Config().PagesPerBlock; i++ {
			if f.Array().State(first+nand.PPN(i)) != nand.PageFree {
				t.Fatalf("dump block %d was programmed", blk)
			}
		}
	}
}

func TestLoadSlotsInstant(t *testing.T) {
	eng := sim.New()
	f := newTestFTL(t, eng, defaultTestConfig())
	ss := f.SlotSize()
	var slots []SlotWrite
	for i := 0; i < 100; i++ {
		slots = append(slots, SlotWrite{LPN: storage.LPN(i), Data: bytes.Repeat([]byte{byte(i)}, ss)})
	}
	if err := f.LoadSlots(slots); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 0 {
		t.Fatal("bulk load consumed virtual time")
	}
	if f.liveSlots != 100 {
		t.Fatalf("live slots = %d, want 100", f.liveSlots)
	}
	eng.Go("io", func(p *sim.Proc) {
		buf := make([]byte, ss)
		if err := f.ReadSlot(p, iotrace.Req{}, 42, buf); err != nil || buf[0] != 42 {
			t.Errorf("loaded slot unreadable (err=%v, b0=%x)", err, buf[0])
		}
	})
	eng.Run()
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAmplificationTracked(t *testing.T) {
	eng := sim.New()
	cfg := defaultTestConfig()
	cfg.OverProvisionPct = 25
	ncfg := nand.EnterpriseConfig(16)
	reg := iotrace.NewRegistry()
	stats := reg.Stats()
	a, _ := nand.New(eng, ncfg, reg)
	f, err := New(a, cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	hot := f.LogicalSlots() / 4
	rng := rand.New(rand.NewSource(3))
	n := int(f.LogicalSlots()) * 2
	eng.Go("io", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pair := []SlotWrite{
				{LPN: storage.LPN(rng.Int63n(hot))},
				{LPN: storage.LPN(rng.Int63n(hot))},
			}
			if pair[0].LPN == pair[1].LPN {
				pair = pair[:1]
			}
			if err := f.Program(p, iotrace.Req{}, pair); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	})
	eng.Run()
	if stats.NANDPrograms <= int64(n) {
		// paired writes: n programs minimum; GC must add more
		t.Fatalf("programs = %d, expected GC overhead beyond %d", stats.NANDPrograms, n)
	}
}

// TestRandomOpsInvariant is a property test: any interleaving of programs
// and reads keeps the mapping consistent and readable.
func TestRandomOpsInvariant(t *testing.T) {
	check := func(seed int64) bool {
		eng := sim.New()
		cfg := defaultTestConfig()
		cfg.OverProvisionPct = 30
		ncfg := nand.EnterpriseConfig(32)
		a, _ := nand.New(eng, ncfg, iotrace.NewRegistry())
		f, err := New(a, cfg, iotrace.NewRegistry())
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		shadow := make(map[storage.LPN]byte)
		ok := true
		eng.Go("ops", func(p *sim.Proc) {
			ss := f.SlotSize()
			for i := 0; i < 600; i++ {
				lpn := storage.LPN(rng.Int63n(f.LogicalSlots() / 8))
				if rng.Intn(3) > 0 {
					v := byte(rng.Intn(255) + 1)
					if err := f.Program(p, iotrace.Req{}, []SlotWrite{{LPN: lpn, Data: bytes.Repeat([]byte{v}, ss)}}); err != nil {
						ok = false
						return
					}
					shadow[lpn] = v
				} else {
					buf := make([]byte, ss)
					if err := f.ReadSlot(p, iotrace.Req{}, lpn, buf); err != nil {
						ok = false
						return
					}
					if buf[0] != shadow[lpn] {
						ok = false
						return
					}
				}
			}
		})
		eng.Run()
		return ok && f.CheckInvariants() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestNewRejectsMapOverflow: mapping-table entries are 32 bits, so a device
// with 2^32 physical slots or more is refused instead of wrapping entries
// onto the wrong pages.
func TestNewRejectsMapOverflow(t *testing.T) {
	ncfg := nand.EnterpriseConfig(16)
	ncfg.Channels, ncfg.PackagesPerChannel, ncfg.ChipsPerPackage, ncfg.PlanesPerChip = 1, 1, 1, 1
	ncfg.BlocksPerPlane, ncfg.PagesPerBlock = 1024, 64 // 2^16 pages
	ncfg.PageSize = 1 << 20
	a, err := nand.New(sim.New(), ncfg, iotrace.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ncfg.PageSize)
	cfg.SlotsPerPage = 1 << 16 // 2^32 physical slots: one past the last 32-bit SPN
	if _, err := New(a, cfg, iotrace.NewRegistry()); err == nil || !strings.Contains(err.Error(), "32-bit") {
		t.Fatalf("New over 2^32 physical slots: err = %v, want a 32-bit overflow error", err)
	}
	cfg.SlotsPerPage = 1 << 4
	if _, err := New(a, cfg, iotrace.NewRegistry()); err != nil {
		t.Fatalf("New over 2^20 physical slots: %v", err)
	}
}

// TestShortBatchProgramsShortImage: a program of fewer slots than a page
// holds stores only those slots' bytes, from the timed path and the bulk
// load alike, and reads of every slot come back whole.
func TestShortBatchProgramsShortImage(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	f := newTestFTL(t, eng, defaultTestConfig())
	ss := f.SlotSize()
	if err := f.LoadSlots([]SlotWrite{{LPN: 1, Data: bytes.Repeat([]byte{1}, ss)}}); err != nil {
		t.Fatal(err)
	}
	eng.Go("io", func(p *sim.Proc) {
		if err := f.Program(p, iotrace.Req{}, []SlotWrite{{LPN: 2, Data: bytes.Repeat([]byte{2}, ss)}}); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	for lpn := storage.LPN(1); lpn <= 2; lpn++ {
		spn, ok := f.spnOf(lpn)
		if !ok {
			t.Fatalf("lpn %d unmapped", lpn)
		}
		if got := len(f.a.Data(nand.PPN(spn / SPN(f.cfg.SlotsPerPage)))); got != ss {
			t.Errorf("lpn %d: stored image is %d bytes, want one slot's %d", lpn, got, ss)
		}
	}
	eng.Go("io", func(p *sim.Proc) {
		buf := make([]byte, ss)
		for lpn := storage.LPN(1); lpn <= 2; lpn++ {
			if err := f.ReadSlot(p, iotrace.Req{}, lpn, buf); err != nil || !bytes.Equal(buf, bytes.Repeat([]byte{byte(lpn)}, ss)) {
				t.Errorf("lpn %d reads back wrong (err=%v)", lpn, err)
			}
		}
	})
	eng.Run()
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRelocationLosesToConcurrentHostWrite: GC on plane 0 copies LPNs 64
// and 65 while a host program of the same LPNs lands on plane 1. The
// copies were read before the host write and commit after it; they must
// not roll the mapping back, with lazy and eager mapping alike.
func TestRelocationLosesToConcurrentHostWrite(t *testing.T) {
	for _, eager := range []bool{false, true} {
		eng := sim.New()
		cfg := defaultTestConfig()
		cfg.EagerMapping = eager
		f := newTestFTL(t, eng, cfg)
		ss := f.SlotSize()
		host := bytes.Repeat([]byte{0xcc}, ss)
		eng.Go("setup", func(p *sim.Proc) {
			if err := fillHalfLive(p, f); err != nil {
				t.Errorf("fill: %v", err)
				return
			}
			eng.Go("gc", func(p *sim.Proc) {
				f.gcLocks[0].Acquire(p, 1)
				defer f.gcLocks[0].Release(1)
				if err := f.gcOnce(p, iotrace.Req{}, 0); err != nil {
					t.Errorf("gcOnce: %v", err)
				}
			})
			eng.Go("host", func(p *sim.Proc) {
				p.Sleep(time.Microsecond)
				f.nextPlane = 1
				if err := f.Program(p, iotrace.Req{}, []SlotWrite{{LPN: 64, Data: host}, {LPN: 65, Data: host}}); err != nil {
					t.Errorf("host program: %v", err)
				}
			})
		})
		eng.Run()
		eng.Go("check", func(p *sim.Proc) {
			buf := make([]byte, ss)
			for lpn := storage.LPN(64); lpn <= 65; lpn++ {
				if err := f.ReadSlot(p, iotrace.Req{}, lpn, buf); err != nil || !bytes.Equal(buf, host) {
					t.Errorf("eager=%v: LPN %d reads %#x (err=%v), want the host's %#x", eager, lpn, buf[0], err, host[0])
				}
			}
		})
		eng.Run()
		if stale := f.relocStale; stale != 2 {
			t.Errorf("eager=%v: reloc_stale = %d, want both copies dropped", eager, stale)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Errorf("eager=%v: %v", eager, err)
		}
		eng.Close()
	}
}
