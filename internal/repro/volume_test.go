package repro

import (
	"bytes"
	"testing"

	"durassd/internal/crashpoint"
	"durassd/internal/faults"
	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
	"durassd/internal/vol"
)

func TestVolumeSweepShapes(t *testing.T) {
	m := mustRun(t, "volume", Config{Scale: 32, Ops: 1200, Seed: 1}).Metrics
	// The durable cache lets the stripe scale: 4 members ≥ 3× one drive.
	dura4 := volumeRow{DuraSSD, "striped", 4, 0}
	if s := speedup(m, dura4); s < 3 {
		t.Fatalf("DuraSSD striped-4 speedup %.2f < 3 — stripe not scaling", s)
	}
	// fsync-every-write wastes the stripe on the volatile drive: < 1.5×.
	ssda4 := volumeRow{SSDA, "striped", 4, 1}
	if s := speedup(m, ssda4); s >= 1.5 {
		t.Fatalf("SSD-A striped-4 under fsync-every-write speedup %.2f >= 1.5 — flush drain not modeled", s)
	}
	// The mirror writes everything twice; it must not beat a single drive.
	mirror := volumeRow{DuraSSD, "mirror", 2, 0}
	if s := speedup(m, mirror); s > 1.2 {
		t.Fatalf("DuraSSD mirror-2 write speedup %.2f > 1.2 — mirror should not scale writes", s)
	}
}

func TestMirrorReadRepairAfterRecovery(t *testing.T) {
	// Regression for the recovery path of vol.Mirror: after a power cycle
	// the mirror comes back degraded, serves reads from the primary, and
	// repairs the secondary copy as ranges are read — visible as extra
	// write traffic on member 1.
	eng := sim.New()
	members := make([]storage.Device, 2)
	for i := range members {
		m, err := ssd.New(eng, ssd.DuraSSD(16))
		if err != nil {
			t.Fatal(err)
		}
		members[i] = m
	}
	m, err := vol.NewMirror(eng, members)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x6b}, 4*m.PageSize())
	eng.Go("io", func(p *sim.Proc) {
		if err := m.Write(p, iotrace.Req{}, 40, 4, data); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		if err := m.Flush(p, iotrace.Req{}); err != nil {
			t.Errorf("Flush: %v", err)
			return
		}
		m.PowerFail()
		if err := m.Reboot(p); err != nil {
			t.Errorf("Reboot: %v", err)
			return
		}
		secondaryWrites := members[1].Stats().PagesWritten
		buf := make([]byte, 4*m.PageSize())
		if err := m.Read(p, iotrace.Req{}, 40, 4, buf); err != nil {
			t.Errorf("degraded Read: %v", err)
			return
		}
		if !bytes.Equal(buf, data) {
			t.Error("degraded read returned wrong data")
			return
		}
		repair := members[1].Stats().PagesWritten - secondaryWrites
		if repair != 4 {
			t.Errorf("read-repair wrote %d pages onto the secondary, want 4", repair)
			return
		}
		// The repaired range must not be repaired again.
		if err := m.Read(p, iotrace.Req{}, 40, 4, buf); err != nil {
			t.Errorf("second Read: %v", err)
			return
		}
		if got := members[1].Stats().PagesWritten - secondaryWrites; got != repair {
			t.Errorf("repaired range re-repaired: secondary writes %d -> %d", repair, got)
		}
	})
	eng.Run()
}

func TestStripedGeometryCrashAudit(t *testing.T) {
	// Regression for crash-point exploration over a composed geometry: the
	// per-member event schedule must stay deterministic, and a stripe of
	// DuraSSDs must survive every enumerated point in the fast config.
	c := crashpoint.Campaign{
		Scenario: faults.Scenario{
			Device: faults.DuraSSD, Layout: faults.Striped, Width: 2,
			Barrier: false, DoubleWrite: false,
			Clients: 4, Updates: 120, Seed: 11,
		},
		MaxPoints: 6,
		DumpTears: 1,
	}
	res, err := crashpoint.Explore(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no crash points enumerated over the striped geometry")
	}
	if res.Unsafe != 0 {
		t.Fatalf("DuraSSD striped-2 fast config unsafe at %d/%d points (lost=%d torn=%d)",
			res.Unsafe, len(res.Points), res.Lost, res.Torn)
	}
	res2, err := crashpoint.Explore(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != res2.Digest {
		t.Fatalf("striped exploration not deterministic:\n  %s\n  %s", res.Digest, res2.Digest)
	}
}
