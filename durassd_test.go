package durassd_test

import (
	"bytes"
	"testing"
	"time"

	"durassd"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

func TestSessionDeviceKinds(t *testing.T) {
	s := durassd.NewSession()
	defer s.Close()
	for _, kind := range []durassd.DeviceKind{durassd.DuraSSD, durassd.SSDA, durassd.SSDB, durassd.HDD} {
		dev, err := s.NewDevice(kind, 32)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if dev.Pages() <= 0 || dev.PageSize() <= 0 {
			t.Fatalf("%s: bad geometry", kind)
		}
	}
	if _, err := s.NewDevice("floppy", 1); err == nil {
		t.Fatal("unknown device kind accepted")
	}
}

func TestSessionEndToEnd(t *testing.T) {
	s := durassd.NewSession()
	defer s.Close()
	dev, err := s.NewDevice(durassd.DuraSSD, 32)
	if err != nil {
		t.Fatal(err)
	}
	fs := s.NewFS(dev, durassd.NoBarriers)
	data := bytes.Repeat([]byte{0x5e}, dev.PageSize())
	s.Run(func(p *sim.Proc) {
		f, err := fs.Create("t", 128)
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := f.WritePages(p, 0, 1, data); err != nil {
			t.Errorf("Write: %v", err)
		}
	})
	if s.Engine().Now() == 0 {
		t.Fatal("no virtual time consumed")
	}
	// Power-cycle through the facade.
	if err := durassd.PowerFail(dev); err != nil {
		t.Fatal(err)
	}
	s.Run(func(p *sim.Proc) {
		if err := durassd.Reboot(p, dev); err != nil {
			t.Errorf("Reboot: %v", err)
			return
		}
		f, _ := fs.Open("t")
		buf := make([]byte, dev.PageSize())
		if err := f.ReadPages(p, 0, 1, buf); err != nil {
			t.Errorf("Read: %v", err)
			return
		}
		if !bytes.Equal(buf, data) {
			t.Error("acked write lost across the facade power cycle")
		}
	})
}

func TestSessionConcurrentProcs(t *testing.T) {
	s := durassd.NewSession()
	defer s.Close()
	var done int
	for i := 0; i < 4; i++ {
		s.Go("worker", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			done++
		})
	}
	s.Run(func(p *sim.Proc) { p.Sleep(2 * time.Millisecond) })
	if done != 4 {
		t.Fatalf("workers done = %d", done)
	}
}

func TestStorageDeviceContract(t *testing.T) {
	// Every facade device implements PowerCycler.
	s := durassd.NewSession()
	defer s.Close()
	for _, kind := range []durassd.DeviceKind{durassd.DuraSSD, durassd.HDD} {
		dev, _ := s.NewDevice(kind, 32)
		if _, ok := dev.(storage.PowerCycler); !ok {
			t.Fatalf("%s does not power-cycle", kind)
		}
	}
}
