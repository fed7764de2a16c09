package nand

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

func mediaConfig(m MediaConfig) Config {
	cfg := testConfig()
	cfg.Media = m
	return cfg
}

func TestInjectBitErrorsRequiresProgrammedPage(t *testing.T) {
	a := newTestArray(t, sim.New())
	if a.InjectBitErrors(0, 4) {
		t.Fatal("injection accepted on a free page")
	}
	if a.InjectBitErrors(PPN(a.Config().Pages()), 4) {
		t.Fatal("injection accepted out of range")
	}
	if err := a.ProgramPageInstant(0, []SlotTag{{LPN: 1}}, nil, false); err != nil {
		t.Fatal(err)
	}
	if !a.InjectBitErrors(0, 4) {
		t.Fatal("injection rejected on a programmed page")
	}
}

func TestStuckBitsBeyondECCStayUncorrectable(t *testing.T) {
	eng := sim.New()
	reg := iotrace.NewRegistry()
	a, err := New(eng, testConfig(), reg)
	if err != nil {
		t.Fatal(err)
	}
	data := testPage(a.Config().PageSize, 7)
	if err := a.ProgramPageInstant(0, []SlotTag{{LPN: 1}}, data, false); err != nil {
		t.Fatal(err)
	}
	if !a.InjectBitErrors(0, a.eccBits+1) {
		t.Fatal("injection rejected")
	}
	eng.Go("io", func(p *sim.Proc) {
		buf := make([]byte, len(data))
		if err := a.ReadPage(p, iotrace.Req{}, 0, buf); !errors.Is(err, storage.ErrUncorrectable) {
			t.Errorf("first read = %v, want ErrUncorrectable", err)
		}
		// Stuck damage is in the cells, not the read conditions: retries
		// with shifted reference voltages cannot recover it.
		if _, err := a.ReadPageRetry(p, iotrace.Req{}, 0, buf, 3); !errors.Is(err, storage.ErrUncorrectable) {
			t.Errorf("retry read = %v, want ErrUncorrectable", err)
		}
	})
	eng.Run()
	if got := reg.Stats().NANDReads; got != 2 {
		t.Fatalf("NANDReads = %d, want 2", got)
	}
}

func TestRetentionErrorsCorrectedWithinThreshold(t *testing.T) {
	eng := sim.New()
	reg := iotrace.NewRegistry()
	a, err := New(eng, mediaConfig(MediaConfig{Seed: 3, RetentionPerMs: 0.25}), reg)
	if err != nil {
		t.Fatal(err)
	}
	data := testPage(a.Config().PageSize, 8)
	if err := a.ProgramPageInstant(0, []SlotTag{{LPN: 1}}, data, false); err != nil {
		t.Fatal(err)
	}
	eng.Go("io", func(p *sim.Proc) {
		p.Sleep(8 * time.Millisecond) // age the page: ~2 expected soft errors
		buf := make([]byte, len(data))
		info, err := a.ReadPageRetry(p, iotrace.Req{}, 0, buf, 0)
		if err != nil {
			t.Errorf("aged read: %v", err)
			return
		}
		if info.CorrectedBits < 1 || info.CorrectedBits > a.eccBits {
			t.Errorf("CorrectedBits = %d, want within (0, %d]", info.CorrectedBits, a.eccBits)
		}
		if !bytes.Equal(buf, data) {
			t.Error("corrected read returned wrong bytes")
		}
	})
	eng.Run()
	if reg.Stats().CorrectedBits == 0 {
		t.Fatal("CorrectedBits stat not accumulated")
	}
}

func TestReadRetryRecoversHeavyRetentionLoss(t *testing.T) {
	eng := sim.New()
	a, err := New(eng, mediaConfig(MediaConfig{Seed: 5, RetentionPerMs: 1}), iotrace.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	data := testPage(a.Config().PageSize, 9)
	if err := a.ProgramPageInstant(0, []SlotTag{{LPN: 1}}, data, false); err != nil {
		t.Fatal(err)
	}
	eng.Go("io", func(p *sim.Proc) {
		p.Sleep(12 * time.Millisecond) // ~12 soft errors: past the ECC threshold
		buf := make([]byte, len(data))
		if _, err := a.ReadPageRetry(p, iotrace.Req{}, 0, buf, 0); !errors.Is(err, storage.ErrUncorrectable) {
			t.Errorf("attempt 0 = %v, want ErrUncorrectable", err)
		}
		// One retry halves the transient errors back under the threshold.
		info, err := a.ReadPageRetry(p, iotrace.Req{}, 0, buf, 1)
		if err != nil {
			t.Errorf("attempt 1: %v", err)
			return
		}
		if info.CorrectedBits == 0 {
			t.Error("retry read should still have corrected bits")
		}
		if !bytes.Equal(buf, data) {
			t.Error("retry read returned wrong bytes")
		}
	})
	eng.Run()
}

func TestEraseClearsStuckBitsAndAge(t *testing.T) {
	eng := sim.New()
	a := newTestArray(t, eng)
	data := testPage(a.Config().PageSize, 10)
	if err := a.ProgramPageInstant(0, []SlotTag{{LPN: 1}}, data, false); err != nil {
		t.Fatal(err)
	}
	a.InjectBitErrors(0, 1000)
	a.eraseNow(0)
	if err := a.ProgramPageInstant(0, []SlotTag{{LPN: 1}}, data, false); err != nil {
		t.Fatal(err)
	}
	eng.Go("io", func(p *sim.Proc) {
		buf := make([]byte, len(data))
		info, err := a.ReadPageRetry(p, iotrace.Req{}, 0, buf, 0)
		if err != nil || info.CorrectedBits != 0 {
			t.Errorf("post-erase read = (%d, %v), want clean", info.CorrectedBits, err)
		}
		if !bytes.Equal(buf, data) {
			t.Error("post-erase read returned wrong bytes")
		}
	})
	eng.Run()
}
