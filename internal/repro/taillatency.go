package repro

import (
	"durassd/internal/fio"
	"durassd/internal/stats"
	"durassd/internal/storage"
)

// tail reproduces the paper's motivation (§1-2): under a mixed read/write
// load with frequent fsyncs, read latency becomes hostage to the write path
// — flush-cache storms and cache-full stalls push the read tail orders of
// magnitude above the read median. Turning barriers off (safe on DuraSSD)
// collapses the tail. Metrics: tail/barrier={On,Off}/read-{p50,p99}-ms.
func tail(cfg Config) (*Result, error) {
	res := newResult()
	tbl := stats.NewTable("Read latency under a mixed 70/30 workload with per-8-writes fsync (DuraSSD)",
		"Barriers", "Read P50", "Read P99", "Read max", "Write P99")
	runRow := func(barrier bool) error {
		rig, err := NewRig(DuraSSD, cfg.Scale, barrier)
		if err != nil {
			return err
		}
		defer rig.Close()
		r, err := fio.Run(rig.Eng, rig.FS, fio.Job{
			Name:       "tail",
			Threads:    64,
			BlockBytes: 4 * storage.KB,
			ReadPct:    70,
			FsyncEvery: 8,
			Ops:        cfg.Ops,
			FilePages:  rig.Dev.Pages() * 11 / 20,
			Preload:    true,
			Seed:       cfg.Seed,
		})
		if err != nil {
			return err
		}
		key := "tail/barrier=" + onOff(barrier)
		res.Metrics[key+"/read-p50-ms"] = ms(r.ReadLat.Percentile(50))
		res.Metrics[key+"/read-p99-ms"] = ms(r.ReadLat.Percentile(99))
		name := "off"
		if barrier {
			name = "on"
		}
		tbl.AddRow(name, r.ReadLat.Percentile(50), r.ReadLat.Percentile(99),
			r.ReadLat.Max(), r.WriteLat.Percentile(99))
		return nil
	}
	for _, barrier := range []bool{true, false} {
		if err := runRow(barrier); err != nil {
			return nil, err
		}
	}
	tbl.AddComment("barriers off is only safe on a durable cache — that is the paper")
	res.Tables = []*stats.Table{tbl}
	return res, nil
}
