package repro

import (
	"fmt"

	"durassd/internal/fio"
	"durassd/internal/host"
	"durassd/internal/sim"
	"durassd/internal/stats"
	"durassd/internal/storage"
	"durassd/internal/vol"
)

// volumeRow is one sweep cell: a device kind, a volume geometry over
// identical members, and the fsync regime of the workload.
type volumeRow struct {
	device     DeviceKind
	layout     string // "striped" (RAID-0) or "mirror" (RAID-1); ignored for one drive
	width      int    // member count; 1 is a single drive
	fsyncEvery int    // writes per fsync with barriers on; 0 = barriers off
}

// geometry names the volume, e.g. "single" or "striped-4".
func (r volumeRow) geometry() string {
	if r.width <= 1 {
		return "single"
	}
	return fmt.Sprintf("%s-%d", r.layout, r.width)
}

func (r volumeRow) String() string {
	regime := "no-barrier"
	if r.fsyncEvery > 0 {
		regime = fmt.Sprintf("fsync-%d", r.fsyncEvery)
	}
	return fmt.Sprintf("%s/%s/%s", r.device, regime, r.geometry())
}

// volumeRows is the sweep: DuraSSD scales with the stripe because the
// durable cache never forces a queue-draining flush, while the volatile
// drive under fsync-every-write wastes the stripe — each fsync drains every
// member's queue, so added spindles buy almost nothing.
var volumeRows = []volumeRow{
	{DuraSSD, "", 1, 0},
	{DuraSSD, "striped", 2, 0},
	{DuraSSD, "striped", 4, 0},
	{DuraSSD, "mirror", 2, 0},
	{SSDA, "", 1, 1},
	{SSDA, "striped", 2, 1},
	{SSDA, "striped", 4, 1},
}

// newVolumeRig builds the row's member devices on one engine, composes
// them, and mounts a filesystem on the result. A single drive is NewRig.
func newVolumeRig(row volumeRow, scale int) (*Rig, error) {
	barrier := row.fsyncEvery > 0
	if row.width <= 1 {
		return NewRig(row.device, scale, barrier)
	}
	eng := sim.New()
	members := make([]storage.Device, row.width)
	for i := range members {
		m, err := newDevice(eng, row.device, scale)
		if err != nil {
			return nil, err
		}
		members[i] = m
	}
	var dev storage.Device
	var err error
	switch row.layout {
	case "striped":
		dev, err = vol.NewStriped(eng, members, 0)
	case "mirror":
		dev, err = vol.NewMirror(eng, members)
	default:
		err = fmt.Errorf("repro: unknown layout %q", row.layout)
	}
	if err != nil {
		return nil, err
	}
	return &Rig{Eng: eng, FS: host.NewFS(dev, barrier), Dev: dev}, nil
}

// speedup is the row's IOPS over the single drive's with the same device
// and fsync regime (0 when that row is missing).
func speedup(metrics map[string]float64, row volumeRow) float64 {
	base := row
	base.width = 1
	b := metrics["volume/"+base.String()]
	if b == 0 {
		return 0
	}
	return metrics["volume/"+row.String()] / b
}

// volume measures 4 KB random-write IOPS across volume geometries. It
// reproduces the paper's scaling argument at the array level: flash arrays
// only scale when the per-device flush-cache tax is gone, which is exactly
// what the durable write cache removes. Metrics: volume/<row> (IOPS).
func volume(cfg Config) (*Result, error) {
	res := newResult()
	tbl := stats.NewTable("Volume sweep: 4KB random-write IOPS by geometry",
		"Device", "Regime", "Volume", "IOPS", "vs single")
	runRow := func(row volumeRow) error {
		rig, err := newVolumeRig(row, cfg.Scale)
		if err != nil {
			return err
		}
		defer rig.Close()
		r, err := fio.Run(rig.Eng, rig.FS, fio.Job{
			Name:       row.String(),
			Threads:    64,
			BlockBytes: 4 * storage.KB,
			FsyncEvery: row.fsyncEvery,
			Ops:        cfg.Ops,
			FilePages:  rig.Dev.Pages() * 11 / 20,
			Preload:    true,
			Seed:       cfg.Seed,
		})
		if err != nil {
			return fmt.Errorf("volume sweep %s: %w", row, err)
		}
		res.Metrics["volume/"+row.String()] = r.IOPS()
		regime := "no-barrier"
		if row.fsyncEvery > 0 {
			regime = fmt.Sprintf("fsync every %d", row.fsyncEvery)
		}
		tbl.AddRow(string(row.device), regime, row.geometry(), r.IOPS(), speedup(res.Metrics, row))
		return nil
	}
	for _, row := range volumeRows {
		if err := runRow(row); err != nil {
			return nil, err
		}
	}
	tbl.AddComment("vs single: IOPS ratio against the same device and regime on one drive")
	tbl.AddComment("durable cache scales with the stripe; fsync-every-write wastes it")
	res.Tables = []*stats.Table{tbl}
	return res, nil
}
