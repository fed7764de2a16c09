// Package durassd is the public entry point of the DuraSSD reproduction: a
// discrete-event-simulated storage stack — NAND flash, FTL, the paper's
// capacitor-backed durable write cache, commercial volatile-cache SSD and
// disk baselines, a filesystem layer with write barriers, and database
// engines (InnoDB-style and Couchbase-style) — faithful enough to
// regenerate every table and figure of the SIGMOD 2014 paper "Durable
// Write Cache in Flash Memory SSD for Relational and NoSQL Databases".
//
// Everything runs in virtual time on a single deterministic engine. A
// typical session:
//
//	s := durassd.NewSession()
//	defer s.Close()
//	dev, _ := s.NewDevice(durassd.DuraSSD, 16)
//	fs := s.NewFS(dev, durassd.NoBarriers)
//	s.Run(func(p *sim.Proc) {
//	    f, _ := fs.Create("data", 1024)
//	    _ = f.WritePages(p, 0, 1, nil) // durable on ack: capacitor-backed
//	})
//
// The cmd/ tools regenerate the paper's evaluation; internal/repro holds
// the experiment harnesses; internal/faults injects power failures and
// audits atomicity and durability end to end.
package durassd

import (
	"fmt"

	"durassd/internal/hdd"
	"durassd/internal/host"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
)

// DeviceKind selects one of the paper's four evaluation devices.
type DeviceKind string

// The paper's devices.
const (
	// DuraSSD is the paper's prototype: a flash SSD whose DRAM write cache
	// is made durable by tantalum capacitors, with atomic page writes, a
	// power-failure dump area and capacitor-backed mapping table.
	DuraSSD DeviceKind = "DuraSSD"
	// SSDA is a commercial SSD with a 512 MB volatile write cache.
	SSDA DeviceKind = "SSD-A"
	// SSDB is a commercial SSD with a 128 MB volatile write cache.
	SSDB DeviceKind = "SSD-B"
	// HDD is a 15K RPM enterprise disk with a 16 MB track cache.
	HDD DeviceKind = "HDD"
)

// Barrier settings for NewFS, aliasing the boolean for readability.
const (
	Barriers   = true  // fsync sends flush-cache to the device (safe default)
	NoBarriers = false // fsync trusts the device cache (safe only on DuraSSD)
)

// Session owns one simulation engine. All devices, filesystems and
// processes created through a session share its virtual clock.
type Session struct {
	eng *sim.Engine
}

// NewSession returns a fresh session with the clock at zero.
func NewSession() *Session { return &Session{eng: sim.New()} }

// Engine exposes the underlying discrete-event engine.
func (s *Session) Engine() *sim.Engine { return s.eng }

// Close releases the session's engine: device service loops and any other
// process still parked are unwound and their coroutines freed. The session
// and everything built on it must not be used afterwards.
func (s *Session) Close() { s.eng.Close() }

// NewDevice builds a powered-on device of the given kind. scale (>= 1)
// shrinks capacity for faster simulation; 1 is ~4 GiB of flash.
func (s *Session) NewDevice(kind DeviceKind, scale int) (storage.Device, error) {
	switch kind {
	case DuraSSD:
		return ssd.New(s.eng, ssd.DuraSSD(scale))
	case SSDA:
		return ssd.New(s.eng, ssd.SSDA(scale))
	case SSDB:
		return ssd.New(s.eng, ssd.SSDB(scale))
	case HDD:
		return hdd.New(s.eng, hdd.Cheetah15K(scale))
	default:
		return nil, fmt.Errorf("durassd: unknown device kind %q", kind)
	}
}

// NewFS mounts a filesystem on the device with write barriers on or off.
// Turning barriers off is the paper's fast path — and is only safe when the
// device cache is durable.
func (s *Session) NewFS(dev storage.Device, barriers bool) *host.FS {
	return host.NewFS(dev, barriers)
}

// Run executes fn as a simulated process and drives the engine until all
// scheduled work completes, returning the virtual time consumed.
func (s *Session) Run(fn func(p *sim.Proc)) {
	s.eng.Go("main", fn)
	s.eng.Run()
}

// Go starts an additional concurrent simulated process (call before or
// inside Run).
func (s *Session) Go(name string, fn func(p *sim.Proc)) {
	s.eng.Go(name, fn)
}

// PowerFail cuts power to a device immediately (it must implement
// storage.PowerCycler, which all built-in devices do).
func PowerFail(dev storage.Device) error {
	pc, ok := dev.(storage.PowerCycler)
	if !ok {
		return fmt.Errorf("durassd: device does not support power cycling")
	}
	pc.PowerFail()
	return nil
}

// Reboot restores power and runs the device's recovery inside process p.
func Reboot(p *sim.Proc, dev storage.Device) error {
	pc, ok := dev.(storage.PowerCycler)
	if !ok {
		return fmt.Errorf("durassd: device does not support power cycling")
	}
	return pc.Reboot(p)
}
