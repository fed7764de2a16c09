package repro

import (
	"time"

	"durassd/internal/fio"
	"durassd/internal/stats"
	"durassd/internal/storage"
)

// TailLatencyConfig sizes the read-tail experiment.
type TailLatencyConfig struct {
	Scale int
	Ops   int
	Seed  int64
}

func (c *TailLatencyConfig) defaults() {
	if c.Scale <= 0 {
		c.Scale = 16
	}
	if c.Ops <= 0 {
		c.Ops = 20_000
	}
}

// TailLatencyResult captures read-latency percentiles for a mixed workload
// under the two barrier settings.
type TailLatencyResult struct {
	Table *stats.Table
	// ReadP99[barrier] in time units.
	ReadP99 map[bool]time.Duration
	ReadP50 map[bool]time.Duration
}

// TailLatency reproduces the paper's motivation (§1-2): under a mixed
// read/write load with frequent fsyncs, read latency becomes hostage to
// the write path — flush-cache storms and cache-full stalls push the read
// tail orders of magnitude above the read median. Turning barriers off
// (safe on DuraSSD) collapses the tail.
func TailLatency(cfg TailLatencyConfig) (*TailLatencyResult, error) {
	cfg.defaults()
	res := &TailLatencyResult{
		ReadP99: make(map[bool]time.Duration),
		ReadP50: make(map[bool]time.Duration),
	}
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
		res.ReadP99[barrier] = r.ReadLat.Percentile(99)
		res.ReadP50[barrier] = r.ReadLat.Percentile(50)
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
	res.Table = tbl
	return res, nil
}
