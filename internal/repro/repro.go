// Package repro regenerates every table and figure of the paper's
// evaluation (§2 and §4) on the simulated devices and database engines.
// Each experiment returns both a formatted table (matching the paper's
// layout) and the raw numbers, so the benchmark suite can assert the
// paper's qualitative shapes: who wins, by roughly what factor, and where
// the crossovers fall.
package repro

import (
	"fmt"

	"durassd/internal/hdd"
	"durassd/internal/host"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
)

// DeviceKind names one of the paper's four evaluation devices.
type DeviceKind string

// The paper's devices (Table 1).
const (
	HDD     DeviceKind = "HDD"
	SSDA    DeviceKind = "SSD-A"
	SSDB    DeviceKind = "SSD-B"
	DuraSSD DeviceKind = "DuraSSD"
)

// Rig bundles one device behind a filesystem on a fresh engine.
type Rig struct {
	Eng *sim.Engine
	FS  *host.FS
	Dev storage.Device
}

// Close releases the rig's engine: the device's service processes unwind
// and their coroutines are freed. The rig must not be used afterwards.
func (r *Rig) Close() { r.Eng.Close() }

// SSDDev returns the device as an *ssd.Device (nil for the HDD).
func (r *Rig) SSDDev() *ssd.Device {
	d, _ := r.Dev.(*ssd.Device)
	return d
}

// NewRig builds a powered-on device of the given kind at the given capacity
// scale, with write barriers in the given state.
func NewRig(kind DeviceKind, scale int, barrier bool) (*Rig, error) {
	eng := sim.New()
	var dev storage.Device
	switch kind {
	case HDD:
		d, err := hdd.New(eng, hdd.Cheetah15K(scale))
		if err != nil {
			return nil, err
		}
		dev = d
	case SSDA:
		d, err := ssd.New(eng, ssd.SSDA(scale))
		if err != nil {
			return nil, err
		}
		dev = d
	case SSDB:
		d, err := ssd.New(eng, ssd.SSDB(scale))
		if err != nil {
			return nil, err
		}
		dev = d
	case DuraSSD:
		d, err := ssd.New(eng, ssd.DuraSSD(scale))
		if err != nil {
			return nil, err
		}
		dev = d
	default:
		return nil, fmt.Errorf("repro: unknown device kind %q", kind)
	}
	return &Rig{Eng: eng, FS: host.NewFS(dev, barrier), Dev: dev}, nil
}

// setWriteCache toggles the device write cache regardless of kind (SSDs,
// disks and volumes all expose the same knob).
func (r *Rig) setWriteCache(on bool) {
	if d, ok := r.Dev.(interface{ SetWriteCache(bool) }); ok {
		d.SetWriteCache(on)
	}
}
