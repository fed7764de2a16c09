// Package repro regenerates every table and figure of the paper's
// evaluation (§2 and §4) on the simulated devices and database engines.
// Each experiment returns both its formatted tables (matching the paper's
// layout) and the raw numbers as flat metrics, so the benchmark suite can
// assert the paper's qualitative shapes: who wins, by roughly what factor,
// and where the crossovers fall.
package repro

import (
	"fmt"
	"strings"

	"durassd/internal/hdd"
	"durassd/internal/host"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/stats"
	"durassd/internal/storage"
)

// Config sizes one experiment. A zero Scale or Ops takes the experiment's
// own default (Experiment.Scale, Experiment.Ops).
type Config struct {
	Scale int   // capacity divisor: of the device, or of the paper-scale database
	Ops   int   // operations (requests, transactions) per table cell
	Seed  int64 // workload seed
}

// Result is what an experiment produced: its tables in print order, and
// its raw numbers under hierarchical keys such as
// "table1/DuraSSD/ON/fsync=1".
type Result struct {
	Tables  []*stats.Table
	Metrics map[string]float64
}

func newResult() *Result { return &Result{Metrics: make(map[string]float64)} }

// Experiment is one row of the paper's evaluation: a name and the sizes
// it runs at when Config leaves them zero. A zero default means the
// experiment has no such knob and ignores the field.
type Experiment struct {
	Name  string
	Scale int
	Ops   int
	run   func(Config) (*Result, error)
}

// Run runs the experiment, filling cfg's zero sizes from its defaults.
func (e Experiment) Run(cfg Config) (*Result, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = e.Scale
	}
	if cfg.Ops <= 0 {
		cfg.Ops = e.Ops
	}
	return e.run(cfg)
}

// Experiments is the paper's evaluation, in the order the paper presents
// it, followed by the extensions.
var Experiments = []Experiment{
	{"table1", 16, 1200, table1},
	{"table2", 16, 4000, table2},
	{"fig5", 256, 160_000, fig5},
	{"fig6", 256, 160_000, fig6},
	{"table3", 256, 160_000, table3},
	{"table4", 256, 60_000, table4},
	{"table5", 0, 100_000, table5}, // 2 M documents at every size
	{"endurance", 512, 160_000, endurance},
	{"breakdown", 16, 1500, breakdown},
	{"tail", 16, 20_000, tail},
	{"volume", 16, 4000, volume},
	{"media", 16, 0, media}, // fixed cold set and aging rounds
}

// Lookup returns the named experiment, or an error that lists the valid
// names.
func Lookup(name string) (Experiment, error) {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		if e.Name == name {
			return e, nil
		}
		names[i] = e.Name
	}
	return Experiment{}, fmt.Errorf("repro: unknown experiment %q (valid: %s)", name, strings.Join(names, " "))
}

// DeviceKind names one of the paper's four evaluation devices.
type DeviceKind string

// The paper's devices (Table 1).
const (
	HDD     DeviceKind = "HDD"
	SSDA    DeviceKind = "SSD-A"
	SSDB    DeviceKind = "SSD-B"
	DuraSSD DeviceKind = "DuraSSD"
)

// newDevice builds one powered-on device of the given kind on eng.
func newDevice(eng *sim.Engine, kind DeviceKind, scale int) (storage.Device, error) {
	switch kind {
	case HDD:
		return hdd.New(eng, hdd.Cheetah15K(scale))
	case SSDA:
		return ssd.New(eng, ssd.SSDA(scale))
	case SSDB:
		return ssd.New(eng, ssd.SSDB(scale))
	case DuraSSD:
		return ssd.New(eng, ssd.DuraSSD(scale))
	}
	return nil, fmt.Errorf("repro: unknown device kind %q", kind)
}

// Rig bundles one device behind a filesystem on a fresh engine.
type Rig struct {
	Eng *sim.Engine
	FS  *host.FS
	Dev storage.Device
}

// Close releases the rig's engine: the device's service processes unwind
// and their coroutines are freed. The rig must not be used afterwards.
func (r *Rig) Close() { r.Eng.Close() }

// NewRig builds a powered-on device of the given kind at the given capacity
// scale, with write barriers in the given state.
func NewRig(kind DeviceKind, scale int, barrier bool) (*Rig, error) {
	eng := sim.New()
	dev, err := newDevice(eng, kind, scale)
	if err != nil {
		return nil, err
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
