package ftl

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/nand"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// newMediaFTL builds an FTL over a NAND array with the given media model.
func newMediaFTL(t *testing.T, eng *sim.Engine, cfg Config, m nand.MediaConfig) *FTL {
	t.Helper()
	ncfg := nand.EnterpriseConfig(16)
	ncfg.Media = m
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

// fillPages programs `pages` full physical pages with per-slot patterns and
// returns the per-LPN expected byte.
func fillPages(t *testing.T, f *FTL, p *sim.Proc, pages int) {
	t.Helper()
	spp := f.SlotsPerPage()
	ss := f.SlotSize()
	for pg := 0; pg < pages; pg++ {
		batch := make([]SlotWrite, spp)
		for i := range batch {
			lpn := storage.LPN(pg*spp + i)
			batch[i] = SlotWrite{LPN: lpn, Data: bytes.Repeat([]byte{byte(lpn)}, ss)}
		}
		if err := f.Program(p, iotrace.Req{}, batch); err != nil {
			t.Fatalf("fill program %d: %v", pg, err)
		}
	}
}

func TestRetirementMigratesLiveDataAndPinsDamage(t *testing.T) {
	eng := sim.New()
	cfg := defaultTestConfig()
	cfg.ReserveBlocks = 1
	f := newMediaFTL(t, eng, cfg, nand.MediaConfig{})
	spp := f.SlotsPerPage()
	ss := f.SlotSize()
	planes := f.a.Config().Planes()
	eng.Go("io", func(p *sim.Proc) {
		fillPages(t, f, p, 2*planes) // two pages in every plane's first block
		ppn0, ok := f.PhysPageOf(0)
		if !ok {
			t.Error("LPN 0 unmapped after fill")
			return
		}
		if !f.a.InjectBitErrors(ppn0, 1000) {
			t.Error("injection rejected")
			return
		}
		buf := make([]byte, ss)
		if err := f.ReadSlot(p, iotrace.Req{}, 0, buf); !errors.Is(err, storage.ErrUncorrectable) {
			t.Errorf("damaged read = %v, want ErrUncorrectable", err)
		}
		if len(f.retired) != 1 {
			t.Errorf("RetiredBlocks = %d, want 1", len(f.retired))
		}
		if got, want := f.ReserveFree(), planes*cfg.ReserveBlocks-1; got != want {
			t.Errorf("ReserveFree = %d, want %d", got, want)
		}
		// Retirement does not hide the damage: the unreadable page's slots
		// stay mapped and keep failing typed until the host rewrites them,
		// while every other slot — including the migrated block-mates —
		// reads back intact.
		for lpn := 0; lpn < 2*planes*spp; lpn++ {
			err := f.ReadSlot(p, iotrace.Req{}, storage.LPN(lpn), buf)
			if lpn < spp {
				if !errors.Is(err, storage.ErrUncorrectable) {
					t.Errorf("slot %d on damaged page: err=%v, want ErrUncorrectable", lpn, err)
				}
				continue
			}
			if err != nil || buf[0] != byte(lpn) {
				t.Errorf("slot %d after retirement: err=%v first=%#x want %#x", lpn, err, buf[0], byte(lpn))
			}
		}
		// A host rewrite heals the damaged slots completely.
		heal := make([]SlotWrite, spp)
		for i := range heal {
			heal[i] = SlotWrite{LPN: storage.LPN(i), Data: bytes.Repeat([]byte{0xee}, ss)}
		}
		if err := f.Program(p, iotrace.Req{}, heal); err != nil {
			t.Errorf("healing rewrite: %v", err)
			return
		}
		if err := f.ReadSlot(p, iotrace.Req{}, 0, buf); err != nil || buf[0] != 0xee {
			t.Errorf("read after rewrite: err=%v first=%#x", err, buf[0])
		}
	})
	eng.Run()
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.stats.UncorrectableReads == 0 || f.stats.RetiredBlocks != 1 {
		t.Fatalf("stats = uncorrectable %d retired %d", f.stats.UncorrectableReads, f.stats.RetiredBlocks)
	}
}

func TestReserveExhaustionDegradesToReadOnly(t *testing.T) {
	eng := sim.New()
	cfg := defaultTestConfig()
	cfg.ReserveBlocks = 1
	f := newMediaFTL(t, eng, cfg, nand.MediaConfig{})
	spp := f.SlotsPerPage()
	ss := f.SlotSize()
	planes := f.a.Config().Planes()
	eng.Go("io", func(p *sim.Proc) {
		fillPages(t, f, p, 4*planes)
		buf := make([]byte, ss)
		damage := func(lpn storage.LPN) {
			ppn, ok := f.PhysPageOf(lpn)
			if !ok {
				t.Fatalf("LPN %d unmapped", lpn)
			}
			if !f.a.InjectBitErrors(ppn, 1000) {
				t.Fatalf("injection rejected for LPN %d", lpn)
			}
			if err := f.ReadSlot(p, iotrace.Req{}, lpn, buf); !errors.Is(err, storage.ErrUncorrectable) {
				t.Fatalf("damaged read of %d = %v", lpn, err)
			}
		}
		damage(0)
		plane0 := f.a.PlaneOf(mustPhys(t, f, 0))
		// Find a second victim in the same plane: its retirement drains the
		// plane's one-block reserve and trips the read-only degradation.
		var second storage.LPN
		for lpn := storage.LPN(spp); ; lpn += storage.LPN(spp) {
			ppn, ok := f.PhysPageOf(lpn)
			if !ok {
				t.Error("ran out of candidate LPNs in plane")
				return
			}
			if f.a.PlaneOf(ppn) == plane0 {
				second = lpn
				break
			}
		}
		damage(second)
		if !f.readOnly {
			t.Error("reserve exhausted but FTL not read-only")
		}
		if err := f.Program(p, iotrace.Req{}, []SlotWrite{{LPN: 9}}); !errors.Is(err, storage.ErrReadOnly) {
			t.Errorf("Program while degraded = %v, want ErrReadOnly", err)
		}
		// Reads keep working: degraded means no new writes, not no service.
		for lpn := storage.LPN(0); lpn < storage.LPN(4*planes*spp); lpn++ {
			if lpn < storage.LPN(spp) || (lpn >= second && lpn < second+storage.LPN(spp)) {
				continue // the two deliberately-damaged pages
			}
			if err := f.ReadSlot(p, iotrace.Req{}, lpn, buf); err != nil {
				t.Errorf("read of %d while degraded: %v", lpn, err)
				return
			}
		}
	})
	eng.Run()
	if f.stats.DegradedTransitions != 1 {
		t.Fatalf("DegradedTransitions = %d, want 1", f.stats.DegradedTransitions)
	}
}

func mustPhys(t *testing.T, f *FTL, lpn storage.LPN) nand.PPN {
	t.Helper()
	ppn, ok := f.PhysPageOf(lpn)
	if !ok {
		t.Fatalf("LPN %d unmapped", lpn)
	}
	return ppn
}

func TestRefreshRelocatesAgingPage(t *testing.T) {
	eng := sim.New()
	cfg := defaultTestConfig()
	cfg.RefreshThreshold = 2
	f := newMediaFTL(t, eng, cfg, nand.MediaConfig{Seed: 9, RetentionPerMs: 0.5})
	ss := f.SlotSize()
	eng.Go("io", func(p *sim.Proc) {
		batch := make([]SlotWrite, f.SlotsPerPage())
		for i := range batch {
			batch[i] = SlotWrite{LPN: storage.LPN(i), Data: bytes.Repeat([]byte{0x5a}, ss)}
		}
		if err := f.Program(p, iotrace.Req{}, batch); err != nil {
			t.Errorf("program: %v", err)
			return
		}
		old := mustPhys(t, f, 0)
		p.Sleep(6 * time.Millisecond) // ~3 expected soft errors: past the threshold
		buf := make([]byte, ss)
		if err := f.ReadSlot(p, iotrace.Req{}, 0, buf); err != nil {
			t.Errorf("aged read: %v", err)
			return
		}
		if !bytes.Equal(buf, batch[0].Data) {
			t.Error("aged read returned wrong bytes")
		}
		if now := mustPhys(t, f, 0); now == old {
			t.Error("refresh did not relocate the aging page")
		}
	})
	eng.Run()
	if f.stats.RefreshPrograms == 0 {
		t.Fatal("no refresh programs recorded")
	}
}

// TestScrubberPreventsUncorrectableHostReads is the paper-facing acceptance
// check: under a retention-heavy media model, cold data patrolled by the
// scrubber stays readable forever, while the identical run without
// scrubbing ends with uncorrectable host reads. Run twice, the scrubbed
// campaign must also produce byte-identical counters (determinism).
func TestScrubberPreventsUncorrectableHostReads(t *testing.T) {
	type counters struct {
		ScrubPasses, ScrubReads, RefreshPrograms, CorrectedBits, Uncorrectable int64
	}
	run := func(scrub bool) counters {
		eng := sim.New()
		cfg := defaultTestConfig()
		cfg.ReadRetries = 0 // isolate the scrubber: no retry safety net
		cfg.RefreshThreshold = 2
		cfg.ReserveBlocks = 1
		if scrub {
			cfg.ScrubInterval = 2 * time.Millisecond
		}
		f := newMediaFTL(t, eng, cfg, nand.MediaConfig{Seed: 21, RetentionPerMs: 0.5})
		f.StartScrubber()
		var uncorrectable int64
		eng.Go("host", func(p *sim.Proc) {
			fillPages(t, f, p, 8)
			// 30 ms of cold retention: ~15 expected soft errors per page,
			// far past the 8-bit ECC. The scrubber's patrol-and-refresh is
			// the only thing keeping the data alive.
			for i := 0; i < 15; i++ {
				p.Sleep(2 * time.Millisecond)
				f.NotifyIdle()
			}
			buf := make([]byte, f.SlotSize())
			for lpn := 0; lpn < 8*f.SlotsPerPage(); lpn++ {
				err := f.ReadSlot(p, iotrace.Req{}, storage.LPN(lpn), buf)
				switch {
				case errors.Is(err, storage.ErrUncorrectable):
					uncorrectable++
				case err != nil:
					t.Errorf("read %d: %v", lpn, err)
				case buf[0] != byte(lpn):
					t.Errorf("read %d returned wrong bytes", lpn)
				}
			}
		})
		eng.Run()
		return counters{
			ScrubPasses:     f.stats.ScrubPasses,
			ScrubReads:      f.stats.ScrubReads,
			RefreshPrograms: f.stats.RefreshPrograms,
			CorrectedBits:   f.stats.CorrectedBits,
			Uncorrectable:   uncorrectable,
		}
	}
	scrubbed := run(true)
	if scrubbed.Uncorrectable != 0 {
		t.Fatalf("scrub on: %d uncorrectable host reads, want 0", scrubbed.Uncorrectable)
	}
	if scrubbed.ScrubPasses == 0 || scrubbed.RefreshPrograms == 0 {
		t.Fatalf("scrubber idle: %+v", scrubbed)
	}
	if again := run(true); again != scrubbed {
		t.Fatalf("scrubbed campaign not deterministic:\n first %+v\nsecond %+v", scrubbed, again)
	}
	if unscrubbed := run(false); unscrubbed.Uncorrectable == 0 {
		t.Fatal("control run without scrubbing lost no reads — campaign too gentle to prove anything")
	}
}

// TestGCRetiresVictimWithUnreadablePage: a GC victim holding a page that
// stays unreadable after every retry is retired in place, never erased.
// Erasing it would turn a typed media error into silent data loss.
func TestGCRetiresVictimWithUnreadablePage(t *testing.T) {
	eng := sim.New()
	cfg := defaultTestConfig()
	cfg.ReserveBlocks = 1
	cfg.ReadRetries = 2
	f := newMediaFTL(t, eng, cfg, nand.MediaConfig{})
	spp, ss := f.SlotsPerPage(), f.SlotSize()
	victim := f.a.BlockOfPlane(0, 0)
	perBlock := f.a.Config().PagesPerBlock * spp
	eng.Go("io", func(p *sim.Proc) {
		if err := fillHalfLive(p, f); err != nil {
			t.Errorf("fill: %v", err)
			return
		}
		damaged := perBlock * 3 / 4
		ppn, _ := f.PhysPageOf(storage.LPN(damaged))
		if f.a.BlockOf(ppn) != victim || !f.a.InjectBitErrors(ppn, 1000) {
			t.Errorf("cannot damage LPN %d at ppn %d", damaged, ppn)
			return
		}
		erases := f.reg.Stats().NANDErases
		f.gcLocks[0].Acquire(p, 1)
		err := f.gcOnce(p, iotrace.Req{}, 0)
		f.gcLocks[0].Release(1)
		if err != nil {
			t.Errorf("gcOnce: %v", err)
			return
		}
		if after := f.reg.Stats().NANDErases; !f.retired[victim] || f.isFree(0, victim) || after != erases || f.a.State(ppn) != nand.PageValid {
			t.Errorf("victim not retired in place: retired=%v free=%v erases %d→%d", f.retired[victim], f.isFree(0, victim), erases, after)
		}
		buf := make([]byte, ss)
		for lpn := 0; lpn < perBlock; lpn++ {
			err := f.ReadSlot(p, iotrace.Req{}, storage.LPN(lpn), buf)
			if lpn/spp == damaged/spp {
				if !errors.Is(err, storage.ErrUncorrectable) {
					t.Errorf("slot %d on damaged page: err=%v, want ErrUncorrectable", lpn, err)
				}
				continue
			}
			want := byte(lpn)
			if lpn < perBlock/2 {
				want ^= 0xff
			}
			if err != nil || !bytes.Equal(buf, bytes.Repeat([]byte{want}, ss)) {
				t.Errorf("slot %d after retirement: err=%v first=%#x want %#x", lpn, err, buf[0], want)
			}
			if at, _ := f.PhysPageOf(storage.LPN(lpn)); f.a.BlockOf(at) == victim {
				t.Errorf("readable slot %d still maps into the retired block", lpn)
			}
		}
	})
	eng.Run()
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// ReserveFree returns the total blocks remaining in the reserve pool.
func (f *FTL) ReserveFree() int {
	n := 0
	for _, r := range f.reserve {
		n += len(r)
	}
	return n
}
