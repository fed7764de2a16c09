package nand

import (
	"bytes"
	"testing"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

func testConfig() Config {
	cfg := EnterpriseConfig(16)
	return cfg
}

func newTestArray(t *testing.T, eng *sim.Engine) *Array {
	t.Helper()
	a, err := New(eng, testConfig(), iotrace.NewRegistry())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

func TestConfigGeometry(t *testing.T) {
	cfg := EnterpriseConfig(1)
	if got := cfg.Planes(); got != 32 {
		t.Fatalf("Planes = %d, want 32", got)
	}
	if cfg.Pages() != int64(cfg.Blocks())*int64(cfg.PagesPerBlock) {
		t.Fatal("page accounting inconsistent")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := testConfig()
	bad.Channels = 0
	if _, err := New(sim.New(), bad, iotrace.NewRegistry()); err == nil {
		t.Fatal("expected error for zero channels")
	}
	bad = testConfig()
	bad.PageSize = 0
	if _, err := New(sim.New(), bad, iotrace.NewRegistry()); err == nil {
		t.Fatal("expected error for zero page size")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	eng := sim.New()
	a := newTestArray(t, eng)
	data := bytes.Repeat([]byte{0xab}, a.Config().PageSize)
	eng.Go("io", func(p *sim.Proc) {
		if err := a.ProgramPage(p, iotrace.Req{}, 0, []SlotTag{{LPN: 7}, {LPN: 8}}, data, false); err != nil {
			t.Errorf("ProgramPage: %v", err)
		}
		buf := make([]byte, a.Config().PageSize)
		if err := a.ReadPage(p, iotrace.Req{}, 0, buf); err != nil {
			t.Errorf("ReadPage: %v", err)
		}
		if !bytes.Equal(buf, data) {
			t.Error("read data differs from programmed data")
		}
	})
	eng.Run()
	if a.State(0) != PageValid {
		t.Fatal("page not valid after program")
	}
	meta := a.Meta(0)
	if meta == nil || len(meta.Slots) != 2 || meta.Slots[0].LPN != 7 || meta.Slots[1].LPN != 8 {
		t.Fatalf("OOB = %+v", meta)
	}
}

func TestProgramRequiresErase(t *testing.T) {
	eng := sim.New()
	a := newTestArray(t, eng)
	eng.Go("io", func(p *sim.Proc) {
		if err := a.ProgramPage(p, iotrace.Req{}, 3, []SlotTag{{LPN: 1}}, nil, false); err != nil {
			t.Errorf("first program: %v", err)
		}
		if err := a.ProgramPage(p, iotrace.Req{}, 3, []SlotTag{{LPN: 2}}, nil, false); err == nil {
			t.Error("expected rewrite without erase to fail")
		}
		if err := a.EraseBlock(p, iotrace.Req{}, a.BlockOf(3)); err != nil {
			t.Errorf("erase: %v", err)
		}
		if err := a.ProgramPage(p, iotrace.Req{}, 3, []SlotTag{{LPN: 2}}, nil, false); err != nil {
			t.Errorf("program after erase: %v", err)
		}
	})
	eng.Run()
	if n := a.Registry().Stats().NANDErases; n != 1 {
		t.Fatalf("erase count = %d, want 1", n)
	}
}

func TestEraseClearsBlock(t *testing.T) {
	eng := sim.New()
	a := newTestArray(t, eng)
	ppb := a.Config().PagesPerBlock
	eng.Go("io", func(p *sim.Proc) {
		for i := 0; i < ppb; i++ {
			if err := a.ProgramPage(p, iotrace.Req{}, PPN(i), []SlotTag{{LPN: storage.LPN(i)}}, nil, false); err != nil {
				t.Errorf("program %d: %v", i, err)
			}
		}
		if err := a.EraseBlock(p, iotrace.Req{}, 0); err != nil {
			t.Errorf("erase: %v", err)
		}
	})
	eng.Run()
	for i := 0; i < ppb; i++ {
		if a.State(PPN(i)) != PageFree {
			t.Fatalf("page %d not free after erase", i)
		}
		if a.Meta(PPN(i)) != nil {
			t.Fatalf("page %d retains OOB after erase", i)
		}
	}
}

func TestParallelProgramsAcrossPlanes(t *testing.T) {
	eng := sim.New()
	a := newTestArray(t, eng)
	cfg := a.Config()
	pagesPerPlane := cfg.BlocksPerPlane * cfg.PagesPerBlock

	// Program one page in each of 8 distinct planes, all on distinct
	// channels where possible: programs should overlap.
	var finish time.Duration
	n := cfg.Channels
	for i := 0; i < n; i++ {
		planesPerChannel := cfg.PackagesPerChannel * cfg.ChipsPerPackage * cfg.PlanesPerChip
		ppn := PPN(i * planesPerChannel * pagesPerPlane)
		eng.Go("prog", func(p *sim.Proc) {
			if err := a.ProgramPage(p, iotrace.Req{}, ppn, []SlotTag{{LPN: 1}}, nil, false); err != nil {
				t.Errorf("program: %v", err)
			}
			if p.Now() > finish {
				finish = p.Now()
			}
		})
	}
	eng.Run()
	serial := time.Duration(n) * cfg.ProgramLatency
	if finish >= serial {
		t.Fatalf("no parallelism: finished at %v, serial would be %v", finish, serial)
	}
}

func TestSameplaneProgramsSerialize(t *testing.T) {
	eng := sim.New()
	a := newTestArray(t, eng)
	cfg := a.Config()
	var finish time.Duration
	for i := 0; i < 4; i++ {
		ppn := PPN(i) // same block, same plane
		eng.Go("prog", func(p *sim.Proc) {
			if err := a.ProgramPage(p, iotrace.Req{}, ppn, []SlotTag{{LPN: 1}}, nil, false); err != nil {
				t.Errorf("program: %v", err)
			}
			if p.Now() > finish {
				finish = p.Now()
			}
		})
	}
	eng.Run()
	if finish < 4*cfg.ProgramLatency {
		t.Fatalf("same-plane programs overlapped: %v < %v", finish, 4*cfg.ProgramLatency)
	}
}

func TestPowerFailTearsInflightProgram(t *testing.T) {
	eng := sim.New()
	a := newTestArray(t, eng)
	data := bytes.Repeat([]byte{0x11}, a.Config().PageSize)
	var progErr error
	eng.Go("prog", func(p *sim.Proc) {
		progErr = a.ProgramPage(p, iotrace.Req{}, 5, []SlotTag{{LPN: 42}}, data, false)
	})
	// Cut power in the middle of the cell program (transfer ~29us, program 900us).
	eng.Schedule(200*time.Microsecond, func() { a.PowerFail() })
	eng.Run()
	if progErr != storage.ErrPowerFail {
		t.Fatalf("program error = %v, want ErrPowerFail", progErr)
	}
	meta := a.Meta(5)
	if meta == nil || !meta.Slots[0].Torn {
		t.Fatalf("page 5 not marked torn: %+v", meta)
	}
	img := a.Data(5)
	if bytes.Equal(img, data) {
		t.Fatal("torn page holds fully-new data")
	}
	if storage.Checksum(img) == storage.Checksum(data) {
		t.Fatal("torn page checksum matches intended data")
	}
}

// TestPowerFailTearsInPPNOrder cuts two programs in flight on different
// planes and checks that the torn pages take sequence numbers in PPN order,
// not in map order: twenty cuts, each of which map iteration would get
// wrong half the time.
func TestPowerFailTearsInPPNOrder(t *testing.T) {
	for cut := 0; cut < 20; cut++ {
		eng := sim.New()
		a := newTestArray(t, eng)
		cfg := a.Config()
		planesPerChannel := cfg.PackagesPerChannel * cfg.ChipsPerPackage * cfg.PlanesPerChip
		ppns := []PPN{PPN(planesPerChannel * cfg.BlocksPerPlane * cfg.PagesPerBlock), 0} // higher PPN issued first
		if a.PlaneOf(ppns[0]) == a.PlaneOf(ppns[1]) {
			t.Fatal("the two pages share a plane")
		}
		for _, ppn := range ppns {
			eng.Go("prog", func(p *sim.Proc) {
				if err := a.ProgramPage(p, iotrace.Req{}, ppn, []SlotTag{{LPN: storage.LPN(ppn)}}, nil, false); err != storage.ErrPowerFail {
					t.Errorf("program %d: %v, want ErrPowerFail", ppn, err)
				}
			})
		}
		eng.Schedule(200*time.Microsecond, func() { a.PowerFail() })
		eng.Run()
		lo, hi := a.Meta(ppns[1]), a.Meta(ppns[0])
		if lo == nil || hi == nil || !lo.Slots[0].Torn || !hi.Slots[0].Torn {
			t.Fatalf("cut %d: both pages must be torn: %+v, %+v", cut, lo, hi)
		}
		if lo.Seq >= hi.Seq {
			t.Fatalf("cut %d: page %d has seq %d, page %d seq %d; want seq rising with PPN", cut, ppns[1], lo.Seq, ppns[0], hi.Seq)
		}
		eng.Close()
	}
}

func TestPowerFailBeforeTransferReturnsOffline(t *testing.T) {
	eng := sim.New()
	a := newTestArray(t, eng)
	a.PowerFail()
	var err error
	eng.Go("prog", func(p *sim.Proc) {
		err = a.ProgramPage(p, iotrace.Req{}, 5, []SlotTag{{LPN: 42}}, nil, false)
	})
	eng.Run()
	if err != storage.ErrOffline {
		t.Fatalf("err = %v, want ErrOffline", err)
	}
	if a.State(5) != PageFree {
		t.Fatal("page programmed while offline")
	}
}

func TestInstantOpsBypassTiming(t *testing.T) {
	eng := sim.New()
	a := newTestArray(t, eng)
	if err := a.ProgramPageInstant(9, []SlotTag{{LPN: 3}}, nil, true); err != nil {
		t.Fatalf("instant program: %v", err)
	}
	if eng.Now() != 0 {
		t.Fatal("instant program consumed virtual time")
	}
	if !a.Meta(9).Dump {
		t.Fatal("dump flag not recorded")
	}
	a.eraseNow(a.BlockOf(9))
	if a.State(9) != PageFree {
		t.Fatal("instant erase did not free page")
	}
}

func TestSequenceNumbersMonotonic(t *testing.T) {
	eng := sim.New()
	a := newTestArray(t, eng)
	eng.Go("io", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if err := a.ProgramPage(p, iotrace.Req{}, PPN(i), []SlotTag{{LPN: storage.LPN(i)}}, nil, false); err != nil {
				t.Errorf("program: %v", err)
			}
		}
	})
	eng.Run()
	var last uint64
	for i := 0; i < 5; i++ {
		seq := a.Meta(PPN(i)).Seq
		if seq <= last {
			t.Fatalf("sequence not monotonic: %d after %d", seq, last)
		}
		last = seq
	}
}

func TestStatsCounters(t *testing.T) {
	eng := sim.New()
	reg := iotrace.NewRegistry()
	stats := reg.Stats()
	a, err := New(eng, testConfig(), reg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Go("io", func(p *sim.Proc) {
		_ = a.ProgramPage(p, iotrace.Req{}, 0, []SlotTag{{LPN: 1}}, nil, false)
		_ = a.ReadPage(p, iotrace.Req{}, 0, nil)
		_ = a.EraseBlock(p, iotrace.Req{}, 0)
	})
	eng.Run()
	if stats.NANDPrograms != 1 || stats.NANDReads != 1 || stats.NANDErases != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestReadOutOfRange(t *testing.T) {
	eng := sim.New()
	a := newTestArray(t, eng)
	var err error
	eng.Go("io", func(p *sim.Proc) {
		err = a.ReadPage(p, iotrace.Req{}, PPN(a.Config().Pages()), nil)
	})
	eng.Run()
	if err != storage.ErrOutOfRange {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}

func TestTimingOnlyReadZeroFills(t *testing.T) {
	eng := sim.New()
	a := newTestArray(t, eng)
	eng.Go("io", func(p *sim.Proc) {
		if err := a.ProgramPage(p, iotrace.Req{}, 0, []SlotTag{{LPN: 1}}, nil, false); err != nil {
			t.Errorf("program: %v", err)
		}
		buf := bytes.Repeat([]byte{0xff}, a.Config().PageSize)
		if err := a.ReadPage(p, iotrace.Req{}, 0, buf); err != nil {
			t.Errorf("read: %v", err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Error("timing-only page did not read back zeroed")
				break
			}
		}
	})
	eng.Run()
}

func TestDumpTearFaultTearsNthInstantProgram(t *testing.T) {
	eng := sim.New()
	a := newTestArray(t, eng)
	a.SetFaults(Faults{DumpTearAfter: 2})
	a.PowerFail()
	data := bytes.Repeat([]byte{0xcd}, a.Config().PageSize)

	// First post-power-off program succeeds.
	if err := a.ProgramPageInstant(0, []SlotTag{{LPN: 1}}, data, true); err != nil {
		t.Fatalf("dump program 1: %v", err)
	}
	// Second one is the armed tear: bad status, page left torn.
	if err := a.ProgramPageInstant(1, []SlotTag{{LPN: 2}}, data, true); err != ErrProgramFailed {
		t.Fatalf("dump program 2: err = %v, want ErrProgramFailed", err)
	}
	if a.State(1) != PageValid {
		t.Fatal("torn dump page must read back as programmed (garbage), not free")
	}
	meta := a.Meta(1)
	if meta == nil || !meta.Dump || len(meta.Slots) != 1 || !meta.Slots[0].Torn || meta.Slots[0].LPN != 2 {
		t.Fatalf("torn dump OOB = %+v, want Dump-flagged torn tag preserving LPN 2", meta)
	}
	if bytes.Equal(a.Data(1), data) {
		t.Fatal("torn dump page holds the intended image intact")
	}
	// The retry on the next pre-erased page succeeds: the fault is one-shot.
	if err := a.ProgramPageInstant(2, []SlotTag{{LPN: 2}}, data, true); err != nil {
		t.Fatalf("dump retry: %v", err)
	}
	if a.Registry().Stats().TornPages != 1 {
		t.Fatalf("TornPages = %d, want 1", a.Registry().Stats().TornPages)
	}
}

func TestInterruptedEraseScramblesBlock(t *testing.T) {
	eng := sim.New()
	a := newTestArray(t, eng)
	a.SetFaults(Faults{InterruptedErase: true})
	data := bytes.Repeat([]byte{0x5a}, a.Config().PageSize)
	a.ProgramPageInstant(0, []SlotTag{{LPN: 9}}, data, false)

	var eraseErr error
	eng.Go("erase", func(p *sim.Proc) {
		eraseErr = a.EraseBlock(p, iotrace.Req{}, 0)
	})
	eng.Schedule(a.Config().EraseLatency/2, func() { a.PowerFail() })
	eng.Run()
	if eraseErr != storage.ErrPowerFail {
		t.Fatalf("erase err = %v, want ErrPowerFail", eraseErr)
	}
	// Every page of the block is indeterminate: programmed garbage under
	// unreadable (torn, LPN-less) OOB.
	for i := 0; i < a.Config().PagesPerBlock; i++ {
		ppn := PPN(i)
		if a.State(ppn) != PageValid {
			t.Fatalf("page %d state = %v, want PageValid (half-erased garbage)", i, a.State(ppn))
		}
		meta := a.Meta(ppn)
		if meta == nil || len(meta.Slots) != 1 || meta.Slots[0].LPN != InvalidLPN || !meta.Slots[0].Torn {
			t.Fatalf("page %d OOB = %+v, want single {InvalidLPN, Torn} tag", i, meta)
		}
	}
	if got := a.Registry().Stats().InterruptedErases; got != 1 {
		t.Fatalf("InterruptedErases = %d, want 1", got)
	}

	// A fresh erase under stable power reclaims the block.
	a.PowerOn()
	eng.Go("re-erase", func(p *sim.Proc) {
		if err := a.EraseBlock(p, iotrace.Req{}, 0); err != nil {
			t.Errorf("re-erase: %v", err)
		}
	})
	eng.Run()
	if a.State(0) != PageFree {
		t.Fatal("block not free after re-erase")
	}
}

func TestUninterruptedEraseCutLeavesBlockUntouched(t *testing.T) {
	// Without the fault armed, a power cut mid-erase is conservative: the
	// old contents survive verbatim.
	eng := sim.New()
	a := newTestArray(t, eng)
	data := bytes.Repeat([]byte{0x77}, a.Config().PageSize)
	a.ProgramPageInstant(0, []SlotTag{{LPN: 4}}, data, false)

	var eraseErr error
	eng.Go("erase", func(p *sim.Proc) {
		eraseErr = a.EraseBlock(p, iotrace.Req{}, 0)
	})
	eng.Schedule(a.Config().EraseLatency/2, func() { a.PowerFail() })
	eng.Run()
	if eraseErr != storage.ErrPowerFail {
		t.Fatalf("erase err = %v, want ErrPowerFail", eraseErr)
	}
	if a.State(0) != PageValid {
		t.Fatal("page lost without the interrupted-erase fault armed")
	}
	meta := a.Meta(0)
	if meta == nil || meta.Slots[0].LPN != 4 || meta.Slots[0].Torn {
		t.Fatalf("OOB = %+v, want intact {LPN 4} tag", meta)
	}
	if !bytes.Equal(a.Data(0), data) {
		t.Fatal("page contents changed across an un-faulted interrupted erase")
	}
}

func TestEventEmission(t *testing.T) {
	eng := sim.New()
	a := newTestArray(t, eng)
	var seen [iotrace.NumEvents]int
	a.Registry().SetEventFn(func(kind iotrace.EventKind, at time.Duration) {
		seen[kind]++
	})
	eng.Go("io", func(p *sim.Proc) {
		if err := a.ProgramPage(p, iotrace.Req{}, 0, []SlotTag{{LPN: 1}}, nil, false); err != nil {
			t.Errorf("program: %v", err)
		}
		if err := a.EraseBlock(p, iotrace.Req{}, 0); err != nil {
			t.Errorf("erase: %v", err)
		}
	})
	eng.Run()
	if seen[iotrace.EvProgram] != 1 || seen[iotrace.EvErase] != 1 {
		t.Fatalf("events = %v, want one program and one erase", seen)
	}
}

// Registry returns the metrics registry shared with the owning device.
func (a *Array) Registry() *iotrace.Registry { return a.reg }
