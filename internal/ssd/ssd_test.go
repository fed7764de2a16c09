package ssd

import (
	"bytes"
	"testing"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

func newDura(t *testing.T) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.New()
	d, err := New(eng, DuraSSD(16))
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func TestProfilesConstruct(t *testing.T) {
	for _, prof := range []Profile{DuraSSD(16), SSDA(16), SSDB(16)} {
		eng := sim.New()
		d, err := New(eng, prof)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		if d.PageSize() != 4*storage.KB {
			t.Fatalf("%s: page size %d", prof.Name, d.PageSize())
		}
		if d.Pages() <= 0 {
			t.Fatalf("%s: no capacity", prof.Name)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	eng, d := newDura(t)
	data := bytes.Repeat([]byte{0xcd}, 2*d.PageSize())
	eng.Go("io", func(p *sim.Proc) {
		if err := d.Write(p, iotrace.Req{}, 10, 2, data); err != nil {
			t.Errorf("Write: %v", err)
		}
		buf := make([]byte, 2*d.PageSize())
		if err := d.Read(p, iotrace.Req{}, 10, 2, buf); err != nil {
			t.Errorf("Read: %v", err)
		}
		if !bytes.Equal(buf, data) {
			t.Error("round trip mismatch")
		}
	})
	eng.Run()
	st := d.Stats()
	if st.WriteCommands != 1 || st.ReadCommands != 1 || st.PagesWritten != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriteAckFasterThanNAND(t *testing.T) {
	eng, d := newDura(t)
	var ack time.Duration
	eng.Go("io", func(p *sim.Proc) {
		if err := d.Write(p, iotrace.Req{}, 0, 1, nil); err != nil {
			t.Errorf("Write: %v", err)
		}
		ack = p.Now()
	})
	eng.Run()
	if ack >= d.Profile().NAND.ProgramLatency {
		t.Fatalf("cached write acked at %v, slower than a NAND program", ack)
	}
}

func TestCacheOffWritePaysNAND(t *testing.T) {
	eng, d := newDura(t)
	d.SetWriteCache(false)
	var ack time.Duration
	eng.Go("io", func(p *sim.Proc) {
		if err := d.Write(p, iotrace.Req{}, 0, 1, nil); err != nil {
			t.Errorf("Write: %v", err)
		}
		ack = p.Now()
	})
	eng.Run()
	if ack < d.Profile().NAND.ProgramLatency {
		t.Fatalf("write-through acked at %v, faster than a NAND program", ack)
	}
}

func TestFlushDrains(t *testing.T) {
	eng, d := newDura(t)
	eng.Go("io", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			if err := d.Write(p, iotrace.Req{}, storage.LPN(i), 1, nil); err != nil {
				t.Errorf("Write: %v", err)
			}
		}
		if err := d.Flush(p, iotrace.Req{}); err != nil {
			t.Errorf("Flush: %v", err)
		}
		// Every written slot is on NAND once the flush returns.
		for i := 0; i < 16; i++ {
			if _, ok := d.f.PhysPageOf(storage.LPN(i)); !ok {
				t.Errorf("LPN %d is not on NAND after the flush", i)
			}
		}
	})
	eng.Run()
	if d.Stats().FlushCommands != 1 {
		t.Fatalf("flush commands = %d", d.Stats().FlushCommands)
	}
}

func TestConcurrentFlushesSerialize(t *testing.T) {
	eng, d := newDura(t)
	var done time.Duration
	const n = 4
	for i := 0; i < n; i++ {
		lpn := storage.LPN(i)
		eng.Go("io", func(p *sim.Proc) {
			if err := d.Write(p, iotrace.Req{}, lpn, 1, nil); err != nil {
				t.Errorf("Write: %v", err)
			}
			if err := d.Flush(p, iotrace.Req{}); err != nil {
				t.Errorf("Flush: %v", err)
			}
			if p.Now() > done {
				done = p.Now()
			}
		})
	}
	eng.Run()
	// Each flush pays at least FlushAck serialized.
	if minSerial := time.Duration(n) * d.Profile().Cache.FlushAck; done < minSerial {
		t.Fatalf("4 concurrent flushes finished at %v; they must serialize past %v", done, minSerial)
	}
}

func TestOutOfRange(t *testing.T) {
	eng, d := newDura(t)
	eng.Go("io", func(p *sim.Proc) {
		if err := d.Write(p, iotrace.Req{}, storage.LPN(d.Pages()), 1, nil); err != storage.ErrOutOfRange {
			t.Errorf("Write OOR = %v", err)
		}
		if err := d.Read(p, iotrace.Req{}, storage.LPN(d.Pages()-1), 2, nil); err != storage.ErrOutOfRange {
			t.Errorf("Read OOR = %v", err)
		}
	})
	eng.Run()
}

func TestPowerCycleKeepsFlushedData(t *testing.T) {
	eng, d := newDura(t)
	data := bytes.Repeat([]byte{0x42}, d.PageSize())
	eng.Go("io", func(p *sim.Proc) {
		if err := d.Write(p, iotrace.Req{}, 5, 1, data); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		d.PowerFail()
		if err := d.Write(p, iotrace.Req{}, 6, 1, nil); err != storage.ErrOffline {
			t.Errorf("write while offline = %v", err)
		}
		if err := d.Reboot(p); err != nil {
			t.Errorf("Reboot: %v", err)
			return
		}
		buf := make([]byte, d.PageSize())
		if err := d.Read(p, iotrace.Req{}, 5, 1, buf); err != nil {
			t.Errorf("Read after reboot: %v", err)
			return
		}
		if !bytes.Equal(buf, data) {
			t.Error("acked write lost across power cycle")
		}
	})
	eng.Run()
	if d.Stats().LostPages != 0 {
		t.Fatalf("DuraSSD lost %d pages", d.Stats().LostPages)
	}
}

func TestVolatilePowerCycleLosesCache(t *testing.T) {
	eng := sim.New()
	d, err := New(eng, SSDA(16))
	if err != nil {
		t.Fatal(err)
	}
	eng.Go("io", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			if err := d.Write(p, iotrace.Req{}, storage.LPN(i), 1, nil); err != nil {
				return
			}
		}
		d.PowerFail()
	})
	eng.Run()
	if d.Stats().LostPages == 0 {
		t.Fatal("volatile SSD lost nothing despite unflushed cache")
	}
}

func TestPreconditionMapsPages(t *testing.T) {
	eng, d := newDura(t)
	if err := d.PreloadPages(0, 1000, nil); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 0 {
		t.Fatal("precondition consumed virtual time")
	}
	if _, ok := d.f.PhysPageOf(999); !ok {
		t.Fatal("page 999 unmapped after precondition")
	}
}
