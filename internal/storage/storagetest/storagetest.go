// Package storagetest is a conformance suite for storage.Device
// implementations. Every device in this repository — flash SSDs, the disk,
// and composed volumes — must present the same host-visible contract:
// uniform ErrOutOfRange for commands that touch any page beyond capacity
// (with no partial side effects), ErrOffline after a power cut, durability
// of acknowledged writes once Flush returns, and live Stats/Registry.
//
// Device packages use it as:
//
//	storagetest.Run(t, func(t *testing.T) storagetest.Harness {
//		eng := sim.New()
//		d, err := ssd.New(eng, ssd.DuraSSD(16))
//		...
//		return storagetest.Harness{Eng: eng, Dev: d}
//	})
package storagetest

import (
	"bytes"
	"errors"
	"testing"

	"time"

	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// Harness bundles one fresh device on its own engine.
type Harness struct {
	Eng *sim.Engine
	Dev storage.Device
}

// Factory builds a fresh powered-on device for one subtest.
type Factory func(t *testing.T) Harness

// Run executes the full conformance suite against devices built by f. Each
// subtest closes its harness's engine when it is done.
func Run(t *testing.T, f Factory) {
	for _, tc := range []struct {
		name string
		test func(*testing.T, Harness)
	}{
		{"Bounds", testBounds},
		{"OverrunNoSideEffects", testOverrun},
		{"StatsRegistry", testStatsRegistry},
		{"FlushDurability", testFlushDurability},
		{"PowerCycleDuringQueuedFlush", testPowerCycleDuringQueuedFlush},
		{"OfflineAfterPowerFail", testOffline},
		{"MediaErrorCorrectableRead", testMediaCorrectable},
		{"MediaErrorUncorrectablePowerCycle", testMediaUncorrectable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := f(t)
			defer h.Eng.Close()
			tc.test(t, h)
		})
	}
}

// drive runs fn as one simulated process and drains the engine.
func drive(t *testing.T, h Harness, fn func(p *sim.Proc)) {
	t.Helper()
	h.Eng.Go("storagetest", fn)
	h.Eng.Run()
}

// testBounds: commands with zero/negative length, starting past the end,
// or addressed beyond 2^63 must fail with ErrOutOfRange.
func testBounds(t *testing.T, h Harness) {
	d := h.Dev
	pages := d.Pages()
	if pages <= 0 {
		t.Fatalf("Pages() = %d", pages)
	}
	cases := []struct {
		name string
		lpn  storage.LPN
		n    int
	}{
		{"zero length", 0, 0},
		{"negative length", 0, -1},
		{"start at capacity", storage.LPN(pages), 1},
		{"start far past capacity", storage.LPN(pages) + 100, 1},
		{"address beyond 2^63", storage.LPN(1) << 63, 1},
		{"address wraps", ^storage.LPN(0), 2},
	}
	drive(t, h, func(p *sim.Proc) {
		for _, c := range cases {
			if err := d.Write(p, iotrace.Req{}, c.lpn, c.n, nil); err != storage.ErrOutOfRange {
				t.Errorf("%s: Write = %v, want ErrOutOfRange", c.name, err)
			}
			if err := d.Read(p, iotrace.Req{}, c.lpn, c.n, nil); err != storage.ErrOutOfRange {
				t.Errorf("%s: Read = %v, want ErrOutOfRange", c.name, err)
			}
		}
	})
	if s := d.Stats(); s.WriteCommands != 0 || s.ReadCommands != 0 {
		t.Errorf("rejected commands counted: %d writes, %d reads", s.WriteCommands, s.ReadCommands)
	}
}

// testOverrun: a multi-page command that starts in range but runs past the
// end must fail whole — ErrOutOfRange and no partial write of the in-range
// prefix. (Regression: per-device checks used to overflow for n near the
// end, admitting partial effects.)
func testOverrun(t *testing.T, h Harness) {
	d := h.Dev
	last := storage.LPN(d.Pages() - 1)
	before := bytes.Repeat([]byte{0x11}, d.PageSize())
	after := bytes.Repeat([]byte{0x22}, 2*d.PageSize())
	drive(t, h, func(p *sim.Proc) {
		if err := d.Write(p, iotrace.Req{}, last, 1, before); err != nil {
			t.Fatalf("seed write: %v", err)
		}
		if err := d.Flush(p, iotrace.Req{}); err != nil {
			t.Fatalf("seed flush: %v", err)
		}
		if err := d.Write(p, iotrace.Req{}, last, 2, after); err != storage.ErrOutOfRange {
			t.Fatalf("overrun Write = %v, want ErrOutOfRange", err)
		}
		buf := make([]byte, d.PageSize())
		if err := d.Read(p, iotrace.Req{}, last, 1, buf); err != nil {
			t.Fatalf("readback: %v", err)
		}
		if !bytes.Equal(buf, before) {
			t.Error("overrun command left a partial side effect on the in-range page")
		}
	})
}

// testStatsRegistry: Stats and Registry are non-nil, live, and count
// completed commands.
func testStatsRegistry(t *testing.T, h Harness) {
	d := h.Dev
	if d.Stats() == nil {
		t.Fatal("Stats() = nil")
	}
	if d.Registry() == nil {
		t.Fatal("Registry() = nil")
	}
	if d.Registry().Stats() != d.Stats() {
		t.Error("Registry().Stats() and Stats() disagree")
	}
	drive(t, h, func(p *sim.Proc) {
		if err := d.Write(p, iotrace.Req{Op: iotrace.OpWrite, Origin: iotrace.OriginData}, 0, 1, nil); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := d.Read(p, iotrace.Req{Op: iotrace.OpRead, Origin: iotrace.OriginData}, 0, 1, nil); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if err := d.Flush(p, iotrace.Req{}); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	})
	s := d.Stats()
	if s.WriteCommands != 1 || s.PagesWritten != 1 {
		t.Errorf("write counters = %d commands / %d pages, want 1/1", s.WriteCommands, s.PagesWritten)
	}
	if s.ReadCommands != 1 || s.PagesRead != 1 {
		t.Errorf("read counters = %d commands / %d pages, want 1/1", s.ReadCommands, s.PagesRead)
	}
	if s.FlushCommands != 1 {
		t.Errorf("flush counter = %d, want 1", s.FlushCommands)
	}
	if got := d.Registry().Origin(iotrace.OriginData).PagesWritten; got != 1 {
		t.Errorf("origin write counter = %d, want 1", got)
	}
}

// testFlushDurability: data acknowledged before a Flush must read back
// intact after a power cut and reboot, on every device that supports power
// cycling.
func testFlushDurability(t *testing.T, h Harness) {
	d := h.Dev
	pc, ok := d.(storage.PowerCycler)
	if !ok {
		t.Skip("device does not implement storage.PowerCycler")
	}
	data := bytes.Repeat([]byte{0x5a}, 3*d.PageSize())
	drive(t, h, func(p *sim.Proc) {
		if err := d.Write(p, iotrace.Req{}, 10, 3, data); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := d.Flush(p, iotrace.Req{}); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		pc.PowerFail()
		if err := pc.Reboot(p); err != nil {
			t.Fatalf("Reboot: %v", err)
		}
		buf := make([]byte, 3*d.PageSize())
		if err := d.Read(p, iotrace.Req{}, 10, 3, buf); err != nil {
			t.Fatalf("Read after reboot: %v", err)
		}
		if !bytes.Equal(buf, data) {
			t.Error("flushed data lost across power cycle")
		}
	})
}

// testPowerCycleDuringQueuedFlush: power dies while a flush is draining
// queued writes. Data whose flush completed before the cut must survive the
// power cycle on every device; data behind the interrupted flush is only
// required to survive if that flush actually returned success.
func testPowerCycleDuringQueuedFlush(t *testing.T, h Harness) {
	d := h.Dev
	pc, ok := d.(storage.PowerCycler)
	if !ok {
		t.Skip("device does not implement storage.PowerCycler")
	}
	flushed := bytes.Repeat([]byte{0x3c}, 3*d.PageSize())
	queued := bytes.Repeat([]byte{0xc3}, 3*d.PageSize())
	drive(t, h, func(p *sim.Proc) {
		if err := d.Write(p, iotrace.Req{}, 10, 3, flushed); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := d.Flush(p, iotrace.Req{}); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if err := d.Write(p, iotrace.Req{}, 20, 3, queued); err != nil {
			t.Fatalf("Write: %v", err)
		}
	})

	// Second phase: drain the queued writes, with the cut landing inside the
	// drain window (or just after it on devices that flush instantly — then
	// the flush's success makes the queued data part of the contract too).
	var flushErr error
	flushDone := false
	h.Eng.Go("flusher", func(p *sim.Proc) {
		flushErr = d.Flush(p, iotrace.Req{})
		flushDone = true
	})
	h.Eng.Schedule(100*time.Microsecond, func() { pc.PowerFail() })
	h.Eng.Run()
	if !flushDone {
		t.Fatal("flush proc never returned after the power cut")
	}

	drive(t, h, func(p *sim.Proc) {
		if err := pc.Reboot(p); err != nil {
			t.Fatalf("Reboot: %v", err)
		}
		buf := make([]byte, 3*d.PageSize())
		if err := d.Read(p, iotrace.Req{}, 10, 3, buf); err != nil {
			t.Fatalf("Read after reboot: %v", err)
		}
		if !bytes.Equal(buf, flushed) {
			t.Error("previously flushed data lost across a cut mid queued-flush")
		}
		if flushErr == nil {
			if err := d.Read(p, iotrace.Req{}, 20, 3, buf); err != nil {
				t.Fatalf("Read after reboot: %v", err)
			}
			if !bytes.Equal(buf, queued) {
				t.Error("flush acknowledged before the cut, but its data did not survive")
			}
		}
	})
}

// testMediaCorrectable: a correctable amount of bit damage on a stored page
// must be invisible to the host — the read succeeds and returns the exact
// written bytes (via ECC correction, read retry, or replica repair), on
// every device that supports media-fault injection.
func testMediaCorrectable(t *testing.T, h Harness) {
	d := h.Dev
	mf, ok := d.(storage.MediaFaulter)
	if !ok {
		t.Skip("device does not implement storage.MediaFaulter")
	}
	data := bytes.Repeat([]byte{0xa7}, d.PageSize())
	drive(t, h, func(p *sim.Proc) {
		if err := d.Write(p, iotrace.Req{}, 5, 1, data); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := d.Flush(p, iotrace.Req{}); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if !mf.InjectReadErrors(5, 1) {
			t.Fatal("InjectReadErrors refused a flushed page")
		}
		// Several reads, so devices that rotate across replicas serve the
		// damaged copy at least once.
		for i := 0; i < 4; i++ {
			buf := make([]byte, d.PageSize())
			if err := d.Read(p, iotrace.Req{}, 5, 1, buf); err != nil {
				t.Fatalf("read %d with correctable damage: %v", i, err)
			}
			if !bytes.Equal(buf, data) {
				t.Errorf("read %d: correctable bit error corrupted the returned data", i)
			}
		}
	})
}

// testMediaUncorrectable: with damage beyond the correction capability, the
// contract is "typed error or correct bytes, never wrong bytes": each read
// either fails with storage.ErrUncorrectable or succeeds with the exact
// written data (a redundant volume may heal it). The verdict must hold
// across a power cycle — recovery cannot resurrect unreadable data as good
// — and rewriting the logical page must fully heal it (remap).
func testMediaUncorrectable(t *testing.T, h Harness) {
	d := h.Dev
	mf, ok := d.(storage.MediaFaulter)
	if !ok {
		t.Skip("device does not implement storage.MediaFaulter")
	}
	data := bytes.Repeat([]byte{0x4d}, d.PageSize())
	checkRead := func(p *sim.Proc, label string) {
		// Several reads, so devices that rotate across replicas serve the
		// damaged copy at least once.
		for i := 0; i < 4; i++ {
			buf := make([]byte, d.PageSize())
			err := d.Read(p, iotrace.Req{}, 7, 1, buf)
			switch {
			case err == nil:
				if !bytes.Equal(buf, data) {
					t.Errorf("%s: read %d succeeded but returned wrong bytes", label, i)
				}
			case errors.Is(err, storage.ErrUncorrectable):
				// Typed failure is the honest outcome.
			default:
				t.Errorf("%s: read %d = %v, want nil or ErrUncorrectable", label, i, err)
			}
		}
	}
	drive(t, h, func(p *sim.Proc) {
		if err := d.Write(p, iotrace.Req{}, 7, 1, data); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := d.Flush(p, iotrace.Req{}); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if !mf.InjectReadErrors(7, 1000) {
			t.Fatal("InjectReadErrors refused a flushed page")
		}
		checkRead(p, "before power cycle")
	})
	if pc, ok := d.(storage.PowerCycler); ok {
		drive(t, h, func(p *sim.Proc) {
			pc.PowerFail()
			if err := pc.Reboot(p); err != nil {
				t.Fatalf("Reboot: %v", err)
			}
			checkRead(p, "after power cycle")
		})
	}
	fresh := bytes.Repeat([]byte{0xb2}, d.PageSize())
	drive(t, h, func(p *sim.Proc) {
		if err := d.Write(p, iotrace.Req{}, 7, 1, fresh); err != nil {
			t.Fatalf("healing rewrite: %v", err)
		}
		if err := d.Flush(p, iotrace.Req{}); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		buf := make([]byte, d.PageSize())
		if err := d.Read(p, iotrace.Req{}, 7, 1, buf); err != nil {
			t.Fatalf("Read after healing rewrite: %v", err)
		}
		if !bytes.Equal(buf, fresh) {
			t.Error("rewrite did not heal the damaged logical page")
		}
	})
}

// testOffline: after PowerFail every command fails with ErrOffline until
// Reboot, and a second PowerFail is harmless.
func testOffline(t *testing.T, h Harness) {
	d := h.Dev
	pc, ok := d.(storage.PowerCycler)
	if !ok {
		t.Skip("device does not implement storage.PowerCycler")
	}
	drive(t, h, func(p *sim.Proc) {
		pc.PowerFail()
		pc.PowerFail() // idempotent
		if err := d.Write(p, iotrace.Req{}, 0, 1, nil); err != storage.ErrOffline {
			t.Errorf("offline Write = %v, want ErrOffline", err)
		}
		if err := d.Read(p, iotrace.Req{}, 0, 1, nil); err != storage.ErrOffline {
			t.Errorf("offline Read = %v, want ErrOffline", err)
		}
		if err := d.Flush(p, iotrace.Req{}); err != storage.ErrOffline {
			t.Errorf("offline Flush = %v, want ErrOffline", err)
		}
		if err := pc.Reboot(p); err != nil {
			t.Fatalf("Reboot: %v", err)
		}
		if err := d.Write(p, iotrace.Req{}, 0, 1, nil); err != nil {
			t.Errorf("Write after Reboot: %v", err)
		}
	})
}
