package repro

import (
	"fmt"
	"time"

	"durassd/internal/host"
	"durassd/internal/innodb"
	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/stats"
	"durassd/internal/storage"
	"durassd/internal/workload/linkbench"
)

// lbCell is one run of the paper's MySQL/LinkBench experiment: a 100 GB
// database (≈54 M nodes) and 10 GB buffer pool, shrunk by Scale with the
// DB:buffer ratio preserved, Ops measured requests from 128 clients. Data
// and log live on two DuraSSD drives, as in §4.2.
type lbCell struct {
	Config
	pageBytes   int   // database page size
	bufferBytes int64 // buffer pool size (0 = 10 GB / Scale)
	barrier     bool  // filesystem write barriers
	doubleWrite bool  // InnoDB double-write buffer
}

// lbRun is one cell's outcome.
type lbRun struct {
	*linkbench.Result
	data     *ssd.Device // the data drive; its counters outlive the engine
	warmNAND int64       // data-drive NAND programs when measurement began
}

// openInnoDB builds the InnoDB rig of the paper's MySQL experiments: data
// on a DuraSSD(2) drive, redo logs on a DuraSSD(16) one, one filesystem on
// each with the given barrier setting. It sizes cfg's data file to 90 % of
// the data drive and each log file to a quarter of the log drive, and
// returns the engine and the data drive.
func openInnoDB(eng *sim.Engine, barrier bool, cfg innodb.Config) (*innodb.Engine, *ssd.Device, error) {
	dataDev, err := ssd.New(eng, ssd.DuraSSD(2))
	if err != nil {
		return nil, nil, err
	}
	logDev, err := ssd.New(eng, ssd.DuraSSD(16))
	if err != nil {
		return nil, nil, err
	}
	cfg.DataPages = dataDev.Pages() * int64(dataDev.PageSize()) / int64(cfg.PageBytes) * 9 / 10
	cfg.LogFilePages = logDev.Pages() / 4
	e, err := innodb.Open(eng, host.NewFS(dataDev, barrier), host.NewFS(logDev, barrier), cfg)
	return e, dataDev, err
}

// runLinkBench builds the two-DuraSSD rig, loads the scaled social graph
// and runs the benchmark.
func runLinkBench(c lbCell) (lbRun, error) {
	if c.bufferBytes <= 0 {
		c.bufferBytes = 10 * storage.GB / int64(c.Scale)
	}
	eng := sim.New()
	defer eng.Close()
	e, dataDev, err := openInnoDB(eng, c.barrier, innodb.Config{
		PageBytes:   c.pageBytes,
		BufferBytes: c.bufferBytes,
		DoubleWrite: c.doubleWrite,
		LogFiles:    3,
	})
	if err != nil {
		return lbRun{}, err
	}
	defer e.Close()

	run := lbRun{data: dataDev}
	b, err := linkbench.Setup(eng, e, linkbench.Config{
		Nodes:    int64(54_000_000) / int64(c.Scale),
		Clients:  128,
		Requests: c.Ops,
		// The paper warms for 600 s to fill the buffer pool; we warm until
		// a default pool (10 GB / Scale of 16 KB pages) has filled and the
		// dirty fraction has reached steady state (≈ two requests per
		// frame), whatever the cell's own pool and page size.
		Warmup:         max(2*int(10*storage.GB/int64(c.Scale)/(16*storage.KB)), c.Ops/4),
		Seed:           c.Seed,
		OnMeasureStart: func() { run.warmNAND = dataDev.Stats().NANDPrograms },
	})
	if err != nil {
		return lbRun{}, err
	}
	run.Result, err = b.Run(eng)
	return run, err
}

// fig5Configs lists the barrier/double-write combinations in paper order.
var fig5Configs = []struct {
	name        string
	barrier     bool
	doubleWrite bool
}{
	{"ON/ON", true, true},
	{"ON/OFF", true, false},
	{"OFF/ON", false, true},
	{"OFF/OFF", false, false},
}

// fig5 reproduces Figure 5: LinkBench transaction throughput under the four
// write-barrier × double-write configurations at three page sizes, plus the
// data device's write amplification per request origin (data pages vs
// double-write buffer) for the 16 KB runs. Metrics:
// fig5/<barrier>/<doublewrite>/page=<bytes> (TPS).
func fig5(cfg Config) (*Result, error) {
	res := newResult()
	tbl := stats.NewTable("Figure 5: LinkBench TPS (write-barrier / double-write-buffer)",
		"Config", "16KB", "8KB", "4KB")
	ot := stats.NewTable("Figure 5 addendum: data-device write amplification by origin (16KB pages)",
		"Config", "Origin", "PagesWritten", "NANDSlots", "GCSlots", "WA")
	for _, fc := range fig5Configs {
		row := []any{fc.name}
		for _, ps := range pageSizes {
			r, err := runLinkBench(lbCell{Config: cfg, pageBytes: ps, barrier: fc.barrier, doubleWrite: fc.doubleWrite})
			if err != nil {
				return nil, fmt.Errorf("fig5 %s %dKB: %w", fc.name, ps/storage.KB, err)
			}
			res.Metrics[fmt.Sprintf("fig5/%s/page=%d", fc.name, ps)] = r.TPS()
			row = append(row, r.TPS())
			if ps == 16*storage.KB {
				reg := r.data.Registry()
				for o := iotrace.Origin(0); o < iotrace.NumOrigins; o++ {
					oc := reg.Origin(o)
					if oc.PagesWritten == 0 && oc.NANDSlots == 0 {
						continue
					}
					ot.AddRow(fc.name, o.String(), oc.PagesWritten, oc.NANDSlots,
						oc.GCSlots, oc.WriteAmplification())
				}
			}
		}
		tbl.AddRow(row...)
	}
	ot.AddComment("WA: NAND slots programmed per host page written, per origin")
	res.Tables = []*stats.Table{tbl, ot}
	return res, nil
}

// fig6BufferGB is the paper's buffer-pool sweep in (pre-scale) gigabytes.
var fig6BufferGB = []int{2, 4, 6, 8, 10}

// fig6 reproduces Figure 6: LinkBench buffer miss ratio (a) and TPS (b) as
// the buffer pool grows from 2 GB to 10 GB (scaled), OFF/OFF configuration.
// Metrics: fig6/miss-pct/… and fig6/tps/page=<bytes>/buffer-gb=<gb>.
func fig6(cfg Config) (*Result, error) {
	res := newResult()
	mt := stats.NewTable("Figure 6(a): LinkBench buffer miss ratio % (OFF/OFF)",
		"Buffer(GB)", "16KB", "8KB", "4KB")
	tt := stats.NewTable("Figure 6(b): LinkBench TPS (OFF/OFF)",
		"Buffer(GB)", "16KB", "8KB", "4KB")
	for _, gb := range fig6BufferGB {
		mrow := []any{gb}
		trow := []any{gb}
		for _, ps := range pageSizes {
			r, err := runLinkBench(lbCell{Config: cfg, pageBytes: ps,
				bufferBytes: int64(gb) * storage.GB / int64(cfg.Scale)})
			if err != nil {
				return nil, fmt.Errorf("fig6 %dKB %dGB: %w", ps/storage.KB, gb, err)
			}
			cell := fmt.Sprintf("page=%d/buffer-gb=%d", ps, gb)
			res.Metrics["fig6/miss-pct/"+cell] = r.MissRatio * 100
			res.Metrics["fig6/tps/"+cell] = r.TPS()
			mrow = append(mrow, r.MissRatio*100)
			trow = append(trow, r.TPS())
		}
		mt.AddRow(mrow...)
		tt.AddRow(trow...)
	}
	res.Tables = []*stats.Table{mt, tt}
	return res, nil
}

// table3 reproduces Table 3: per-operation latency distributions under the
// MySQL default configuration (ON/ON, 16 KB pages) versus the DuraSSD-optimal
// one (OFF/OFF, 4 KB pages). Metrics: table3/{default,best}/<op>/{mean,p99}-ms
// for every operation that ran in both.
func table3(cfg Config) (*Result, error) {
	def, err := runLinkBench(lbCell{Config: cfg, pageBytes: 16 * storage.KB, barrier: true, doubleWrite: true})
	if err != nil {
		return nil, fmt.Errorf("table3 default: %w", err)
	}
	best, err := runLinkBench(lbCell{Config: cfg, pageBytes: 4 * storage.KB})
	if err != nil {
		return nil, fmt.Errorf("table3 best: %w", err)
	}
	res := newResult()
	tbl := stats.NewTable("Table 3: LinkBench latency (ms) — ON/ON 16KB vs OFF/OFF 4KB",
		"Op", "Mean", "P25", "P50", "P75", "P99", "Max", "|", "Mean'", "P25'", "P50'", "P75'", "P99'", "Max'")
	for _, op := range linkbench.OpTypes() {
		d := def.Hist(op)
		b := best.Hist(op)
		tbl.AddRow(op.String(),
			ms(d.Mean()), ms(d.Percentile(25)), ms(d.Percentile(50)), ms(d.Percentile(75)), ms(d.Percentile(99)), ms(d.Max()),
			"|",
			ms(b.Mean()), ms(b.Percentile(25)), ms(b.Percentile(50)), ms(b.Percentile(75)), ms(b.Percentile(99)), ms(b.Max()))
		if d.Count() == 0 || b.Count() == 0 {
			continue
		}
		for _, side := range []struct {
			name string
			h    *stats.Hist
		}{{"default", d}, {"best", b}} {
			res.Metrics["table3/"+side.name+"/"+op.String()+"/mean-ms"] = ms(side.h.Mean())
			res.Metrics["table3/"+side.name+"/"+op.String()+"/p99-ms"] = ms(side.h.Percentile(99))
		}
	}
	tbl.AddComment("left: MySQL default (barriers on, double-write on, 16KB); right: DuraSSD best (off/off, 4KB)")
	res.Tables = []*stats.Table{tbl}
	return res, nil
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
