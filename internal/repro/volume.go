package repro

import (
	"fmt"

	"durassd/internal/fio"
	"durassd/internal/hdd"
	"durassd/internal/host"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/stats"
	"durassd/internal/storage"
	"durassd/internal/vol"
)

// Layout names a multi-device volume geometry.
type Layout string

// Supported layouts.
const (
	Single   Layout = "single"
	Striped  Layout = "striped" // RAID-0
	Mirrored Layout = "mirror"  // RAID-1
	Concat   Layout = "concat"  // linear
)

// VolumeSpec describes a volume geometry over identical member devices.
type VolumeSpec struct {
	Layout Layout
	Width  int // member count (ignored for Single)
	Chunk  int // stripe unit in pages; 0 = vol.DefaultChunkPages
}

func (v VolumeSpec) String() string {
	if v.Layout == Single || v.Layout == "" || v.Width <= 1 {
		return string(Single)
	}
	return fmt.Sprintf("%s-%d", v.Layout, v.Width)
}

// newMember builds one device of the given kind on eng.
func newMember(eng *sim.Engine, kind DeviceKind, scale int) (storage.Device, error) {
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

// NewVolumeRig builds spec.Width devices of the given kind on one engine,
// composes them per the spec, and mounts a filesystem on the result. A
// Single spec degenerates to NewRig.
func NewVolumeRig(kind DeviceKind, spec VolumeSpec, scale int, barrier bool) (*Rig, error) {
	if spec.Layout == Single || spec.Layout == "" || spec.Width <= 1 {
		return NewRig(kind, scale, barrier)
	}
	eng := sim.New()
	members := make([]storage.Device, spec.Width)
	for i := range members {
		m, err := newMember(eng, kind, scale)
		if err != nil {
			return nil, err
		}
		members[i] = m
	}
	var dev storage.Device
	var err error
	switch spec.Layout {
	case Striped:
		dev, err = vol.NewStriped(eng, members, spec.Chunk)
	case Mirrored:
		dev, err = vol.NewMirror(eng, members)
	case Concat:
		dev, err = vol.NewConcat(eng, members)
	default:
		err = fmt.Errorf("repro: unknown layout %q", spec.Layout)
	}
	if err != nil {
		return nil, err
	}
	return &Rig{Eng: eng, FS: host.NewFS(dev, barrier), Dev: dev}, nil
}

// VolumeSweepConfig scales the volume-geometry sweep.
type VolumeSweepConfig struct {
	Scale      int
	OpsPerCell int
	Threads    int
	Seed       int64
}

func (c *VolumeSweepConfig) defaults() {
	if c.Scale <= 0 {
		c.Scale = 16
	}
	if c.OpsPerCell <= 0 {
		c.OpsPerCell = 4000
	}
	if c.Threads <= 0 {
		c.Threads = 64
	}
}

// VolumeRow is one sweep cell: a device kind, a volume geometry, and the
// fsync regime of the workload.
type VolumeRow struct {
	Device     DeviceKind
	Spec       VolumeSpec
	Barrier    bool
	FsyncEvery int // writes per fsync; 0 = never
}

func (r VolumeRow) String() string {
	regime := "no-barrier"
	if r.Barrier {
		regime = fmt.Sprintf("fsync-%d", r.FsyncEvery)
	}
	return fmt.Sprintf("%s/%s/%s", r.Device, regime, r.Spec)
}

// VolumeSweepRows is the default sweep: DuraSSD scales with the stripe
// because the durable cache never forces a queue-draining flush, while the
// volatile drive under fsync-every-write wastes the stripe — each fsync
// drains every member's queue, so added spindles buy almost nothing.
var VolumeSweepRows = []VolumeRow{
	{DuraSSD, VolumeSpec{Layout: Single}, false, 0},
	{DuraSSD, VolumeSpec{Layout: Striped, Width: 2}, false, 0},
	{DuraSSD, VolumeSpec{Layout: Striped, Width: 4}, false, 0},
	{DuraSSD, VolumeSpec{Layout: Mirrored, Width: 2}, false, 0},
	{SSDA, VolumeSpec{Layout: Single}, true, 1},
	{SSDA, VolumeSpec{Layout: Striped, Width: 2}, true, 1},
	{SSDA, VolumeSpec{Layout: Striped, Width: 4}, true, 1},
}

// VolumeSweepResult holds the formatted table and raw IOPS per row.
type VolumeSweepResult struct {
	Table *stats.Table
	IOPS  map[string]float64
}

// Speedup returns the IOPS ratio of row over the single-device row with
// the same device and fsync regime (0 when either row is missing).
func (r *VolumeSweepResult) Speedup(row VolumeRow) float64 {
	base := row
	base.Spec = VolumeSpec{Layout: Single}
	b := r.IOPS[base.String()]
	if b == 0 {
		return 0
	}
	return r.IOPS[row.String()] / b
}

// VolumeSweep measures 4 KB random-write IOPS across volume geometries.
// It reproduces the paper's scaling argument at the array level: flash
// arrays only scale when the per-device flush-cache tax is gone, which is
// exactly what the durable write cache removes.
func VolumeSweep(cfg VolumeSweepConfig) (*VolumeSweepResult, error) {
	cfg.defaults()
	res := &VolumeSweepResult{IOPS: make(map[string]float64)}
	tbl := stats.NewTable("Volume sweep: 4KB random-write IOPS by geometry",
		"Device", "Regime", "Volume", "IOPS", "vs single")
	runRow := func(row VolumeRow) error {
		rig, err := NewVolumeRig(row.Device, row.Spec, cfg.Scale, row.Barrier)
		if err != nil {
			return err
		}
		defer rig.Close()
		filePages := rig.Dev.Pages() * 11 / 20
		file, err := rig.FS.Create("volsweep", filePages)
		if err != nil {
			return err
		}
		if err := file.Preload(0, filePages, nil); err != nil {
			return err
		}
		r, err := fio.RunFile(rig.Eng, file, fio.Job{
			Name:       row.String(),
			Threads:    cfg.Threads,
			BlockBytes: 4 * storage.KB,
			FsyncEvery: row.FsyncEvery,
			Ops:        cfg.OpsPerCell,
			Seed:       cfg.Seed,
		})
		if err != nil {
			return fmt.Errorf("volume sweep %s: %w", row, err)
		}
		res.IOPS[row.String()] = r.IOPS()
		regime := "no-barrier"
		if row.Barrier {
			regime = fmt.Sprintf("fsync every %d", row.FsyncEvery)
		}
		tbl.AddRow(string(row.Device), regime, row.Spec.String(), r.IOPS(), res.Speedup(row))
		return nil
	}
	for _, row := range VolumeSweepRows {
		if err := runRow(row); err != nil {
			return nil, err
		}
	}
	tbl.AddComment("vs single: IOPS ratio against the same device and regime on one drive")
	tbl.AddComment("durable cache scales with the stripe; fsync-every-write wastes it")
	res.Table = tbl
	return res, nil
}
