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

// LinkBenchConfig scales the paper's MySQL/LinkBench experiment: a 100 GB
// database (≈54 M nodes) and 10 GB buffer pool, shrunk by Scale with the
// DB:buffer ratio preserved. Data and log live on two DuraSSD drives, as
// in §4.2.
type LinkBenchConfig struct {
	Scale    int // divide paper-scale sizes (default 64)
	Requests int // measured requests (paper: 6.4 M)
	Warmup   int
	Clients  int
	Seed     int64

	PageBytes   int   // database page size
	BufferBytes int64 // buffer pool size (0 = 10 GB / Scale)
	Barrier     bool  // filesystem write barriers
	DoubleWrite bool  // InnoDB double-write buffer

	onMeasureStart func() // internal: counter snapshot at warm-up end
}

func (c *LinkBenchConfig) defaults() {
	if c.Scale <= 0 {
		c.Scale = 256
	}
	if c.Requests <= 0 {
		c.Requests = 160_000
	}
	if c.Clients <= 0 {
		c.Clients = 128
	}
	if c.PageBytes <= 0 {
		c.PageBytes = 16 * storage.KB
	}
	if c.BufferBytes <= 0 {
		c.BufferBytes = 10 * storage.GB / int64(c.Scale)
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	} else if c.Warmup == 0 {
		// The paper warms for 600 s to fill the buffer pool; we warm until
		// the pool has filled and the dirty fraction has reached steady
		// state (≈ two requests per frame).
		c.Warmup = 2 * int(c.BufferBytes/int64(c.PageBytes))
		if min := c.Requests / 4; c.Warmup < min {
			c.Warmup = min
		}
	}
}

// RunLinkBench builds the two-DuraSSD rig, loads the scaled social graph
// and runs the benchmark.
func RunLinkBench(cfg LinkBenchConfig) (*linkbench.Result, error) {
	cfg.defaults()
	res, _, err := runLinkBenchInnerWithStats(cfg, nil, nil)
	return res, err
}

// runLinkBenchInnerWithStats additionally publishes the data device's stats
// pointer and metrics registry before the run starts (for counter snapshots
// in hooks and per-origin reporting).
func runLinkBenchInnerWithStats(cfg LinkBenchConfig, stPtr **storage.Stats, regPtr **iotrace.Registry) (*linkbench.Result, *innodb.Engine, error) {
	eng := sim.New()
	defer eng.Close()
	dataDev, err := ssd.New(eng, ssd.DuraSSD(2))
	if err != nil {
		return nil, nil, err
	}
	if stPtr != nil {
		*stPtr = dataDev.Stats()
	}
	if regPtr != nil {
		*regPtr = dataDev.Registry()
	}
	logDev, err := ssd.New(eng, ssd.DuraSSD(16))
	if err != nil {
		return nil, nil, err
	}
	dataFS := host.NewFS(dataDev, cfg.Barrier)
	logFS := host.NewFS(logDev, cfg.Barrier)

	dataPages := dataDev.Pages() * int64(dataDev.PageSize()) / int64(cfg.PageBytes) * 9 / 10
	e, err := innodb.Open(eng, dataFS, logFS, innodb.Config{
		PageBytes:    cfg.PageBytes,
		BufferBytes:  cfg.BufferBytes,
		DoubleWrite:  cfg.DoubleWrite,
		DataPages:    dataPages,
		LogFilePages: logDev.Pages() / 4,
		LogFiles:     3,
	})
	if err != nil {
		return nil, nil, err
	}
	defer e.Close()

	nodes := int64(54_000_000) / int64(cfg.Scale)
	b, err := linkbench.Setup(eng, e, linkbench.Config{
		Nodes:          nodes,
		Clients:        cfg.Clients,
		Requests:       cfg.Requests,
		Warmup:         cfg.Warmup,
		Seed:           cfg.Seed,
		OnMeasureStart: cfg.onMeasureStart,
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := b.Run(eng)
	return res, e, err
}

// Fig5Result holds Figure 5's TPS grid: TPS[config][pageBytes], where
// config is "barrier/doublewrite" ("ON/ON", "ON/OFF", "OFF/ON", "OFF/OFF").
// Origins attributes the data device's write amplification per request
// origin (data pages vs double-write buffer) for the 16 KB runs.
type Fig5Result struct {
	Table   *stats.Table
	Origins *stats.Table
	TPS     map[string]map[int]float64
}

// Fig5Configs lists the barrier/double-write combinations in paper order.
var Fig5Configs = []struct {
	Name        string
	Barrier     bool
	DoubleWrite bool
}{
	{"ON/ON", true, true},
	{"ON/OFF", true, false},
	{"OFF/ON", false, true},
	{"OFF/OFF", false, false},
}

// Fig5 reproduces Figure 5: LinkBench transaction throughput under the four
// write-barrier × double-write configurations at three page sizes.
func Fig5(cfg LinkBenchConfig) (*Fig5Result, error) {
	cfg.defaults()
	res := &Fig5Result{TPS: make(map[string]map[int]float64)}
	tbl := stats.NewTable("Figure 5: LinkBench TPS (write-barrier / double-write-buffer)",
		"Config", "16KB", "8KB", "4KB")
	ot := stats.NewTable("Figure 5 addendum: data-device write amplification by origin (16KB pages)",
		"Config", "Origin", "PagesWritten", "NANDSlots", "GCSlots", "WA")
	for _, fc := range Fig5Configs {
		cells := make(map[int]float64, len(PageSizes))
		row := []any{fc.Name}
		for _, ps := range PageSizes {
			c := cfg
			c.PageBytes = ps
			c.Barrier = fc.Barrier
			c.DoubleWrite = fc.DoubleWrite
			var reg *iotrace.Registry
			r, _, err := runLinkBenchInnerWithStats(c, nil, &reg)
			if err != nil {
				return nil, fmt.Errorf("fig5 %s %dKB: %w", fc.Name, ps/storage.KB, err)
			}
			cells[ps] = r.TPS()
			row = append(row, r.TPS())
			if ps == 16*storage.KB {
				for o := iotrace.Origin(0); o < iotrace.NumOrigins; o++ {
					oc := reg.Origin(o)
					if oc.PagesWritten == 0 && oc.NANDSlots == 0 {
						continue
					}
					ot.AddRow(fc.Name, o.String(), oc.PagesWritten, oc.NANDSlots,
						oc.GCSlots, oc.WriteAmplification())
				}
			}
		}
		res.TPS[fc.Name] = cells
		tbl.AddRow(row...)
	}
	ot.AddComment("WA: NAND slots programmed per host page written, per origin")
	res.Table = tbl
	res.Origins = ot
	return res, nil
}

// Fig6Result holds Figure 6: miss ratio and TPS vs buffer pool size under
// OFF/OFF, per page size. Keyed [pageBytes][bufferGB].
type Fig6Result struct {
	MissTable *stats.Table
	TPSTable  *stats.Table
	Miss      map[int]map[int]float64
	TPS       map[int]map[int]float64
}

// Fig6BufferGB is the paper's buffer-pool sweep in (pre-scale) gigabytes.
var Fig6BufferGB = []int{2, 4, 6, 8, 10}

// Fig6 reproduces Figure 6: LinkBench buffer miss ratio (a) and TPS (b) as
// the buffer pool grows from 2 GB to 10 GB (scaled), OFF/OFF configuration.
func Fig6(cfg LinkBenchConfig) (*Fig6Result, error) {
	cfg.defaults()
	res := &Fig6Result{
		Miss: make(map[int]map[int]float64),
		TPS:  make(map[int]map[int]float64),
	}
	mt := stats.NewTable("Figure 6(a): LinkBench buffer miss ratio % (OFF/OFF)",
		"Buffer(GB)", "16KB", "8KB", "4KB")
	tt := stats.NewTable("Figure 6(b): LinkBench TPS (OFF/OFF)",
		"Buffer(GB)", "16KB", "8KB", "4KB")
	for _, ps := range PageSizes {
		res.Miss[ps] = make(map[int]float64)
		res.TPS[ps] = make(map[int]float64)
	}
	for _, gb := range Fig6BufferGB {
		mrow := []any{gb}
		trow := []any{gb}
		for _, ps := range PageSizes {
			c := cfg
			c.PageBytes = ps
			c.Barrier = false
			c.DoubleWrite = false
			c.BufferBytes = int64(gb) * storage.GB / int64(c.Scale)
			r, err := RunLinkBench(c)
			if err != nil {
				return nil, fmt.Errorf("fig6 %dKB %dGB: %w", ps/storage.KB, gb, err)
			}
			res.Miss[ps][gb] = r.MissRatio * 100
			res.TPS[ps][gb] = r.TPS()
			mrow = append(mrow, r.MissRatio*100)
			trow = append(trow, r.TPS())
		}
		mt.AddRow(mrow...)
		tt.AddRow(trow...)
	}
	res.MissTable, res.TPSTable = mt, tt
	return res, nil
}

// Table3Result holds the latency distributions of the paper's Table 3.
type Table3Result struct {
	Table   *stats.Table
	Default *linkbench.Result // ON/ON, 16 KB pages (MySQL defaults)
	Best    *linkbench.Result // OFF/OFF, 4 KB pages (DuraSSD sweet spot)
}

// Table3 reproduces Table 3: per-operation latency distributions under the
// MySQL default configuration versus the DuraSSD-optimal one.
func Table3(cfg LinkBenchConfig) (*Table3Result, error) {
	cfg.defaults()
	def := cfg
	def.PageBytes = 16 * storage.KB
	def.Barrier = true
	def.DoubleWrite = true
	best := cfg
	best.PageBytes = 4 * storage.KB
	best.Barrier = false
	best.DoubleWrite = false

	defRes, err := RunLinkBench(def)
	if err != nil {
		return nil, fmt.Errorf("table3 default: %w", err)
	}
	bestRes, err := RunLinkBench(best)
	if err != nil {
		return nil, fmt.Errorf("table3 best: %w", err)
	}
	tbl := stats.NewTable("Table 3: LinkBench latency (ms) — ON/ON 16KB vs OFF/OFF 4KB",
		"Op", "Mean", "P25", "P50", "P75", "P99", "Max", "|", "Mean'", "P25'", "P50'", "P75'", "P99'", "Max'")
	for _, op := range linkbench.OpTypes() {
		d := defRes.Hist(op)
		b := bestRes.Hist(op)
		tbl.AddRow(op.String(),
			ms(d.Mean()), ms(d.Percentile(25)), ms(d.Percentile(50)), ms(d.Percentile(75)), ms(d.Percentile(99)), ms(d.Max()),
			"|",
			ms(b.Mean()), ms(b.Percentile(25)), ms(b.Percentile(50)), ms(b.Percentile(75)), ms(b.Percentile(99)), ms(b.Max()))
	}
	tbl.AddComment("left: MySQL default (barriers on, double-write on, 16KB); right: DuraSSD best (off/off, 4KB)")
	return &Table3Result{Table: tbl, Default: defRes, Best: bestRes}, nil
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
