package repro

import (
	"fmt"
	"time"

	"durassd/internal/fio"
	"durassd/internal/iotrace"
	"durassd/internal/stats"
	"durassd/internal/storage"
)

// breakdownRows are the Table 1 configurations the breakdown instruments:
// the durable cache and a representative volatile-cache SSD, both with the
// write cache on and barriers enabled.
var breakdownRows = []table1Row{
	{DuraSSD, true, false},
	{SSDA, true, false},
}

// breakdownLayers is the display order of the per-layer table.
var breakdownLayers = []iotrace.Layer{
	iotrace.LayerHostQueue,
	iotrace.LayerLink,
	iotrace.LayerFirmware,
	iotrace.LayerCache,
	iotrace.LayerFlushDrain,
	iotrace.LayerFTL,
	iotrace.LayerGC,
	iotrace.LayerNAND,
}

// breakdown runs a mixed 4 KB random workload with periodic fsyncs against
// each instrumented device with request tracing enabled, and attributes
// every microsecond of request latency to the layer that spent it: host
// queue, link transfer, firmware, device cache, flush drain, FTL, GC and
// NAND. The share column is each layer's exclusive time as a fraction of
// all layer time, so the rows of one device sum to ~100%. Each device also
// gets a per-origin traffic table. No metrics.
func breakdown(cfg Config) (*Result, error) {
	res := newResult()
	runRow := func(row table1Row) error {
		rig, err := NewRig(row.Device, cfg.Scale, !row.NoBarrier)
		if err != nil {
			return err
		}
		defer rig.Close()
		rig.setWriteCache(row.CacheOn)
		reg := rig.Dev.Registry()
		reg.EnableTracing(true)
		if _, err := fio.Run(rig.Eng, rig.FS, fio.Job{
			Name:       "breakdown-" + row.String(),
			Threads:    4,
			BlockBytes: 4 * storage.KB,
			ReadPct:    20,
			FsyncEvery: 16,
			Ops:        cfg.Ops,
			FilePages:  rig.Dev.Pages() * 11 / 20,
			Preload:    true,
			Seed:       cfg.Seed,
		}); err != nil {
			return fmt.Errorf("breakdown %s: %w", row, err)
		}

		var total time.Duration
		for _, l := range breakdownLayers {
			total += reg.LayerLatency(l).Sum()
		}
		tbl := stats.NewTable(
			fmt.Sprintf("Per-layer latency breakdown — %s, cache %s", row.Device, cacheLabel(row)),
			"Layer", "Spans", "Mean", "Total", "Share")
		for _, l := range breakdownLayers {
			h := reg.LayerLatency(l)
			if h.Count() == 0 {
				continue
			}
			share := 0.0
			if total > 0 {
				share = 100 * float64(h.Sum()) / float64(total)
			}
			tbl.AddRow(l.String(), h.Count(), h.Mean(), h.Sum(),
				fmt.Sprintf("%.1f%%", share))
		}
		tbl.AddComment("mean/total are exclusive time: child-layer time is subtracted")
		res.Tables = append(res.Tables, tbl, originTable(reg,
			fmt.Sprintf("Per-origin traffic — %s, cache %s", row.Device, cacheLabel(row))))
		return nil
	}
	for _, row := range breakdownRows {
		if err := runRow(row); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// originTable renders the per-origin traffic counters of one registry:
// host pages in/out, NAND slots programmed on the origin's behalf, the GC
// share of those slots, and the resulting per-origin write amplification.
func originTable(reg *iotrace.Registry, title string) *stats.Table {
	tbl := stats.NewTable(title,
		"Origin", "PagesWritten", "PagesRead", "NANDSlots", "GCSlots", "WA")
	for o := iotrace.Origin(0); o < iotrace.NumOrigins; o++ {
		c := reg.Origin(o)
		if c.PagesWritten == 0 && c.PagesRead == 0 && c.NANDSlots == 0 {
			continue
		}
		tbl.AddRow(o.String(), c.PagesWritten, c.PagesRead, c.NANDSlots, c.GCSlots,
			c.WriteAmplification())
	}
	return tbl
}
