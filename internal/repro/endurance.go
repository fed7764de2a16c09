package repro

import (
	"fmt"

	"durassd/internal/stats"
	"durassd/internal/storage"
)

// endurance quantifies the paper's fourth contribution: "the absolute
// amount of data written to flash memory is reduced more than 50% by
// avoiding redundant writes and by utilizing a small page size". It runs
// the same LinkBench workload under the MySQL default configuration and the
// DuraSSD-optimal one (both with barriers off, so the comparison isolates
// write volume, not flush stalls) and compares NAND bytes programmed per
// request. Metrics: endurance/flash-bytes-per-tx/{default,durassd} and
// endurance/reduction (1 - durassd/default).
func endurance(cfg Config) (*Result, error) {
	run := func(pageBytes int, dwb bool) (float64, error) {
		r, err := runLinkBench(lbCell{Config: cfg, pageBytes: pageBytes, doubleWrite: dwb})
		if err != nil {
			return 0, err
		}
		if r.Requests == 0 {
			return 0, fmt.Errorf("endurance: no requests measured")
		}
		physPage := 8 * storage.KB
		return float64(r.data.Stats().NANDPrograms-r.warmNAND) * float64(physPage) / float64(r.Requests), nil
	}
	def, err := run(16*storage.KB, true)
	if err != nil {
		return nil, err
	}
	dura, err := run(4*storage.KB, false)
	if err != nil {
		return nil, err
	}
	reduction := 0.0
	if def > 0 {
		reduction = 1 - dura/def
	}
	tbl := stats.NewTable("Endurance: NAND bytes programmed per LinkBench request",
		"Config", "KB/request")
	tbl.AddRow("16KB pages + double-write (MySQL default)", def/1024)
	tbl.AddRow("4KB pages, no double-write (DuraSSD)", dura/1024)
	tbl.AddComment("reduction: %.0f%% (paper claims >50%%)", reduction*100)
	return &Result{
		Tables: []*stats.Table{tbl},
		Metrics: map[string]float64{
			"endurance/flash-bytes-per-tx/default": def,
			"endurance/flash-bytes-per-tx/durassd": dura,
			"endurance/reduction":                  reduction,
		},
	}, nil
}
