package repro

import (
	"fmt"

	"durassd/internal/fio"
	"durassd/internal/stats"
	"durassd/internal/storage"
)

// fsyncSweep is the paper's Table 1 x-axis: writes per fsync, with 0
// meaning no fsync at all.
var fsyncSweep = []int{1, 4, 8, 16, 32, 64, 128, 256, 0}

// table1Row identifies one table row: a device and its cache mode.
type table1Row struct {
	Device    DeviceKind
	CacheOn   bool
	NoBarrier bool // DuraSSD's extra "ON (NoBarrier)" row
}

func (r table1Row) String() string {
	mode := "OFF"
	if r.CacheOn {
		mode = "ON"
	}
	if r.NoBarrier {
		mode = "ON(NoBarrier)"
	}
	return fmt.Sprintf("%s/%s", r.Device, mode)
}

// table1Rows lists the paper's nine rows in order.
var table1Rows = []table1Row{
	{HDD, false, false},
	{HDD, true, false},
	{SSDA, false, false},
	{SSDA, true, false},
	{SSDB, false, false},
	{SSDB, true, false},
	{DuraSSD, false, false},
	{DuraSSD, true, false},
	{DuraSSD, true, true},
}

// table1 reproduces the paper's Table 1: the effect of fsync frequency and
// the flush-cache command on 4 KB random-write IOPS, across the disk, two
// volatile-cache SSDs and DuraSSD. Metrics: table1/<row>/fsync=<n> (n = 0
// is no fsync).
func table1(cfg Config) (*Result, error) {
	res := newResult()
	tbl := stats.NewTable("Table 1: effect of fsync and flush cache on 4KB random write IOPS",
		append([]string{"Device", "Cache"}, fsyncHeaders()...)...)

	runRow := func(row table1Row) error {
		rig, err := NewRig(row.Device, cfg.Scale, !row.NoBarrier)
		if err != nil {
			return err
		}
		defer rig.Close()
		rig.setWriteCache(row.CacheOn)
		filePages := rig.Dev.Pages() * 11 / 20
		file, err := rig.FS.Create("t1", filePages)
		if err != nil {
			return err
		}
		if err := file.Preload(0, filePages, nil); err != nil {
			return err
		}
		rowCells := []any{string(row.Device), cacheLabel(row)}
		for _, every := range fsyncSweep {
			r, err := fio.RunFile(rig.Eng, file, fio.Job{
				Name:       row.String(),
				Threads:    1,
				BlockBytes: 4 * storage.KB,
				FsyncEvery: every,
				Ops:        cfg.Ops,
				Seed:       cfg.Seed + int64(every),
			})
			if err != nil {
				return fmt.Errorf("table1 %s fsync=%d: %w", row, every, err)
			}
			res.Metrics[fmt.Sprintf("table1/%s/fsync=%d", row, every)] = r.IOPS()
			rowCells = append(rowCells, r.IOPS())
		}
		tbl.AddRow(rowCells...)
		return nil
	}
	for _, row := range table1Rows {
		if err := runRow(row); err != nil {
			return nil, err
		}
	}
	tbl.AddComment("columns: writes per fsync; last column: no fsync")
	res.Tables = []*stats.Table{tbl}
	return res, nil
}

func cacheLabel(r table1Row) string {
	switch {
	case r.NoBarrier:
		return "ON (NoBarrier)"
	case r.CacheOn:
		return "ON"
	default:
		return "OFF"
	}
}

func fsyncHeaders() []string {
	hs := make([]string, len(fsyncSweep))
	for i, f := range fsyncSweep {
		if f == 0 {
			hs[i] = "no fsync"
		} else {
			hs[i] = fmt.Sprint(f)
		}
	}
	return hs
}

// pageSizes is the paper's page-size sweep (bytes), largest first.
var pageSizes = []int{16 * storage.KB, 8 * storage.KB, 4 * storage.KB}

// table2 reproduces the paper's Table 2: the effect of page size on IOPS
// for DuraSSD (a) and the disk (b). Metrics: table2/<row>/page=<bytes>.
func table2(cfg Config) (*Result, error) {
	res := newResult()

	type rowSpec struct {
		name    string
		kind    DeviceKind
		threads int
		readPct int
		fsync   int
		barrier bool
	}
	duraRows := []rowSpec{
		{"Read-only (128 threads)", DuraSSD, 128, 100, 0, true},
		{"Write-only (1-fsync)", DuraSSD, 1, 0, 1, true},
		{"Write-only (256-fsync)", DuraSSD, 1, 0, 256, true},
		{"Write-only (128 no-barrier)", DuraSSD, 128, 0, 0, false},
	}
	hddRows := []rowSpec{
		{"HDD Read-only (128 threads)", HDD, 128, 100, 0, true},
		{"HDD Write-only (128 threads)", HDD, 128, 0, 0, true},
	}

	runCell := func(row rowSpec, ps int) (float64, error) {
		rig, err := NewRig(row.kind, cfg.Scale, row.barrier)
		if err != nil {
			return 0, err
		}
		defer rig.Close()
		r, err := fio.Run(rig.Eng, rig.FS, fio.Job{
			Name:       row.name,
			Threads:    row.threads,
			BlockBytes: ps,
			ReadPct:    row.readPct,
			FsyncEvery: row.fsync,
			Ops:        cfg.Ops,
			FilePages:  rig.Dev.Pages() * 11 / 20,
			Preload:    true,
			Seed:       cfg.Seed + int64(ps),
		})
		if err != nil {
			return 0, fmt.Errorf("table2 %s page=%d: %w", row.name, ps, err)
		}
		return r.IOPS(), nil
	}
	for _, part := range []struct {
		title string
		rows  []rowSpec
	}{
		{"Table 2(a): effect of page size on IOPS — DuraSSD", duraRows},
		{"Table 2(b): effect of page size on IOPS — HDD", hddRows},
	} {
		tbl := stats.NewTable(part.title, "Random IOPS", "16KB", "8KB", "4KB")
		for _, row := range part.rows {
			rowCells := []any{row.name}
			for _, ps := range pageSizes {
				iops, err := runCell(row, ps)
				if err != nil {
					return nil, err
				}
				res.Metrics[fmt.Sprintf("table2/%s/page=%d", row.name, ps)] = iops
				rowCells = append(rowCells, iops)
			}
			tbl.AddRow(rowCells...)
		}
		res.Tables = append(res.Tables, tbl)
	}
	return res, nil
}
