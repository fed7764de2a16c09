package repro

import (
	"fmt"

	"durassd/internal/fio"
	"durassd/internal/stats"
	"durassd/internal/storage"
)

// FsyncSweep is the paper's Table 1 x-axis: writes per fsync, with 0
// meaning no fsync at all.
var FsyncSweep = []int{1, 4, 8, 16, 32, 64, 128, 256, 0}

// Table1Config scales the Table 1 reproduction.
type Table1Config struct {
	Scale      int   // device capacity divisor (default 16)
	OpsPerCell int   // operations per table cell (default 1200)
	Seed       int64 // workload seed
}

func (c *Table1Config) defaults() {
	if c.Scale <= 0 {
		c.Scale = 16
	}
	if c.OpsPerCell <= 0 {
		c.OpsPerCell = 1200
	}
}

// Table1Row identifies one table row: a device and its cache mode.
type Table1Row struct {
	Device    DeviceKind
	CacheOn   bool
	NoBarrier bool // DuraSSD's extra "ON (NoBarrier)" row
}

func (r Table1Row) String() string {
	mode := "OFF"
	if r.CacheOn {
		mode = "ON"
	}
	if r.NoBarrier {
		mode = "ON(NoBarrier)"
	}
	return fmt.Sprintf("%s/%s", r.Device, mode)
}

// Table1Rows lists the paper's nine rows in order.
var Table1Rows = []Table1Row{
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

// Table1Result holds the formatted table and raw IOPS per row and fsync
// frequency (key 0 = no fsync).
type Table1Result struct {
	Table *stats.Table
	IOPS  map[string]map[int]float64
}

// Table1 reproduces the paper's Table 1: the effect of fsync frequency and
// the flush-cache command on 4 KB random-write IOPS, across the disk, two
// volatile-cache SSDs and DuraSSD.
func Table1(cfg Table1Config) (*Table1Result, error) {
	cfg.defaults()
	res := &Table1Result{IOPS: make(map[string]map[int]float64)}
	tbl := stats.NewTable("Table 1: effect of fsync and flush cache on 4KB random write IOPS",
		append([]string{"Device", "Cache"}, fsyncHeaders()...)...)

	runRow := func(row Table1Row) error {
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
		cells := make(map[int]float64, len(FsyncSweep))
		rowCells := []any{string(row.Device), cacheLabel(row)}
		for _, every := range FsyncSweep {
			r, err := fio.RunFile(rig.Eng, file, fio.Job{
				Name:       row.String(),
				Threads:    1,
				BlockBytes: 4 * storage.KB,
				FsyncEvery: every,
				Ops:        cfg.OpsPerCell,
				Seed:       cfg.Seed + int64(every),
			})
			if err != nil {
				return fmt.Errorf("table1 %s fsync=%d: %w", row, every, err)
			}
			cells[every] = r.IOPS()
			rowCells = append(rowCells, r.IOPS())
		}
		res.IOPS[row.String()] = cells
		tbl.AddRow(rowCells...)
		return nil
	}
	for _, row := range Table1Rows {
		if err := runRow(row); err != nil {
			return nil, err
		}
	}
	tbl.AddComment("columns: writes per fsync; last column: no fsync")
	res.Table = tbl
	return res, nil
}

func cacheLabel(r Table1Row) string {
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
	hs := make([]string, len(FsyncSweep))
	for i, f := range FsyncSweep {
		if f == 0 {
			hs[i] = "no fsync"
		} else {
			hs[i] = fmt.Sprint(f)
		}
	}
	return hs
}

// Table2Config scales the Table 2 reproduction.
type Table2Config struct {
	Scale      int
	OpsPerCell int
	Seed       int64
}

func (c *Table2Config) defaults() {
	if c.Scale <= 0 {
		c.Scale = 16
	}
	if c.OpsPerCell <= 0 {
		c.OpsPerCell = 4000
	}
}

// PageSizes is the paper's page-size sweep (bytes), largest first.
var PageSizes = []int{16 * storage.KB, 8 * storage.KB, 4 * storage.KB}

// Table2Result holds the formatted tables and the raw IOPS:
// IOPS[workload][pageBytes].
type Table2Result struct {
	DuraSSD *stats.Table
	HDD     *stats.Table
	IOPS    map[string]map[int]float64
}

// Table 2 workload row names.
const (
	T2ReadOnly128  = "Read-only (128 threads)"
	T2Write1Fsync  = "Write-only (1-fsync)"
	T2Write256     = "Write-only (256-fsync)"
	T2Write128NoBa = "Write-only (128 no-barrier)"
	T2HDDRead128   = "HDD Read-only (128 threads)"
	T2HDDWrite128  = "HDD Write-only (128 threads)"
)

// Table2 reproduces the paper's Table 2: the effect of page size on IOPS
// for DuraSSD (a) and the disk (b).
func Table2(cfg Table2Config) (*Table2Result, error) {
	cfg.defaults()
	res := &Table2Result{IOPS: make(map[string]map[int]float64)}

	type rowSpec struct {
		name    string
		kind    DeviceKind
		threads int
		readPct int
		fsync   int
		barrier bool
	}
	duraRows := []rowSpec{
		{T2ReadOnly128, DuraSSD, 128, 100, 0, true},
		{T2Write1Fsync, DuraSSD, 1, 0, 1, true},
		{T2Write256, DuraSSD, 1, 0, 256, true},
		{T2Write128NoBa, DuraSSD, 128, 0, 0, false},
	}
	hddRows := []rowSpec{
		{T2HDDRead128, HDD, 128, 100, 0, true},
		{T2HDDWrite128, HDD, 128, 0, 0, true},
	}

	run := func(rows []rowSpec, title string) (*stats.Table, error) {
		tbl := stats.NewTable(title, "Random IOPS", "16KB", "8KB", "4KB")
		for _, row := range rows {
			cells := make(map[int]float64, len(PageSizes))
			rowCells := []any{row.name}
			runCell := func(ps int) error {
				rig, err := NewRig(row.kind, cfg.Scale, row.barrier)
				if err != nil {
					return err
				}
				defer rig.Close()
				filePages := rig.Dev.Pages() * 11 / 20
				file, err := rig.FS.Create("t2", filePages)
				if err != nil {
					return err
				}
				if err := file.Preload(0, filePages, nil); err != nil {
					return err
				}
				r, err := fio.RunFile(rig.Eng, file, fio.Job{
					Name:       row.name,
					Threads:    row.threads,
					BlockBytes: ps,
					ReadPct:    row.readPct,
					FsyncEvery: row.fsync,
					Ops:        cfg.OpsPerCell,
					Seed:       cfg.Seed + int64(ps),
				})
				if err != nil {
					return fmt.Errorf("table2 %s page=%d: %w", row.name, ps, err)
				}
				cells[ps] = r.IOPS()
				rowCells = append(rowCells, r.IOPS())
				return nil
			}
			for _, ps := range PageSizes {
				if err := runCell(ps); err != nil {
					return nil, err
				}
			}
			res.IOPS[row.name] = cells
			tbl.AddRow(rowCells...)
		}
		return tbl, nil
	}

	var err error
	if res.DuraSSD, err = run(duraRows, "Table 2(a): effect of page size on IOPS — DuraSSD"); err != nil {
		return nil, err
	}
	if res.HDD, err = run(hddRows, "Table 2(b): effect of page size on IOPS — HDD"); err != nil {
		return nil, err
	}
	return res, nil
}
