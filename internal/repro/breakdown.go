package repro

import (
	"fmt"
	"time"

	"durassd/internal/fio"
	"durassd/internal/iotrace"
	"durassd/internal/stats"
	"durassd/internal/storage"
)

// BreakdownConfig scales the per-layer latency breakdown run.
type BreakdownConfig struct {
	Scale int   // device capacity divisor (default 16)
	Ops   int   // operations per device (default 1500)
	Seed  int64 // workload seed
}

func (c *BreakdownConfig) defaults() {
	if c.Scale <= 0 {
		c.Scale = 16
	}
	if c.Ops <= 0 {
		c.Ops = 1500
	}
}

// BreakdownResult holds one per-layer latency table per device plus a
// per-origin traffic table, and the raw layer means keyed by device row
// name then layer.
type BreakdownResult struct {
	Tables    []*stats.Table
	LayerMean map[string]map[iotrace.Layer]time.Duration
}

// breakdownRows are the Table 1 configurations the breakdown instruments:
// the durable cache and a representative volatile-cache SSD, both with the
// write cache on and barriers enabled.
var breakdownRows = []Table1Row{
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

// Breakdown runs a mixed 4 KB random workload with periodic fsyncs against
// each instrumented device with request tracing enabled, and attributes
// every microsecond of request latency to the layer that spent it: host
// queue, link transfer, firmware, device cache, flush drain, FTL, GC and
// NAND. The share column is each layer's exclusive time as a fraction of
// all layer time, so the rows of one device sum to ~100%.
func Breakdown(cfg BreakdownConfig) (*BreakdownResult, error) {
	cfg.defaults()
	res := &BreakdownResult{LayerMean: make(map[string]map[iotrace.Layer]time.Duration)}

	runRow := func(row Table1Row) error {
		rig, err := NewRig(row.Device, cfg.Scale, !row.NoBarrier)
		if err != nil {
			return err
		}
		defer rig.Close()
		rig.setWriteCache(row.CacheOn)
		reg := rig.Dev.Registry()
		reg.EnableTracing(true)

		filePages := rig.Dev.Pages() * 11 / 20
		file, err := rig.FS.Create("breakdown", filePages)
		if err != nil {
			return err
		}
		if err := file.Preload(0, filePages, nil); err != nil {
			return err
		}
		if _, err := fio.RunFile(rig.Eng, file, fio.Job{
			Name:       "breakdown-" + row.String(),
			Threads:    4,
			BlockBytes: 4 * storage.KB,
			ReadPct:    20,
			FsyncEvery: 16,
			Ops:        cfg.Ops,
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
		means := make(map[iotrace.Layer]time.Duration)
		for _, l := range breakdownLayers {
			h := reg.LayerLatency(l)
			if h.Count() == 0 {
				continue
			}
			means[l] = h.Mean()
			share := 0.0
			if total > 0 {
				share = 100 * float64(h.Sum()) / float64(total)
			}
			tbl.AddRow(l.String(), h.Count(), h.Mean(), h.Sum(),
				fmt.Sprintf("%.1f%%", share))
		}
		tbl.AddComment("mean/total are exclusive time: child-layer time is subtracted")
		res.LayerMean[row.String()] = means
		res.Tables = append(res.Tables, tbl)
		res.Tables = append(res.Tables, OriginTable(reg,
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

// OriginTable renders the per-origin traffic counters of one registry:
// host pages in/out, NAND slots programmed on the origin's behalf, the GC
// share of those slots, and the resulting per-origin write amplification.
func OriginTable(reg *iotrace.Registry, title string) *stats.Table {
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
