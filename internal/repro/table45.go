package repro

import (
	"fmt"

	"durassd/internal/couch"
	"durassd/internal/host"
	"durassd/internal/innodb"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/stats"
	"durassd/internal/storage"
	"durassd/internal/workload/tpcc"
	"durassd/internal/workload/ycsb"
)

// TPCCConfig scales the paper's commercial-DBMS TPC-C experiment: 1000
// warehouses (~100 GB) with a 2 GB buffer, shrunk by Scale with the 2%
// buffer:database ratio preserved. The engine opens its data file with
// O_DSYNC and runs without a double-write buffer, as §4.3.2 describes.
type TPCCConfig struct {
	Scale    int // divide paper-scale sizes (default 256)
	Requests int
	Warmup   int
	Clients  int
	Seed     int64

	PageBytes int
	Barrier   bool
}

func (c *TPCCConfig) defaults() {
	if c.Scale <= 0 {
		c.Scale = 256
	}
	if c.Requests <= 0 {
		c.Requests = 60_000
	}
	if c.Clients <= 0 {
		c.Clients = 64
	}
	if c.PageBytes <= 0 {
		c.PageBytes = 16 * storage.KB
	}
	if c.Warmup == 0 {
		c.Warmup = c.Requests / 4
	}
}

// RunTPCC executes one TPC-C cell.
func RunTPCC(cfg TPCCConfig) (*tpcc.Result, error) {
	cfg.defaults()
	eng := sim.New()
	defer eng.Close()
	dataDev, err := ssd.New(eng, ssd.DuraSSD(2))
	if err != nil {
		return nil, err
	}
	logDev, err := ssd.New(eng, ssd.DuraSSD(16))
	if err != nil {
		return nil, err
	}
	dataFS := host.NewFS(dataDev, cfg.Barrier)
	logFS := host.NewFS(logDev, cfg.Barrier)

	warehouses := 1000 / cfg.Scale
	if warehouses < 4 {
		warehouses = 4
	}
	bufferBytes := 2 * storage.GB / int64(cfg.Scale)
	dataPages := dataDev.Pages() * int64(dataDev.PageSize()) / int64(cfg.PageBytes) * 9 / 10
	e, err := innodb.Open(eng, dataFS, logFS, innodb.Config{
		PageBytes:    cfg.PageBytes,
		BufferBytes:  bufferBytes,
		DoubleWrite:  false,
		ODSync:       true,
		DataPages:    dataPages,
		LogFilePages: logDev.Pages() / 4,
	})
	if err != nil {
		return nil, err
	}
	defer e.Close()

	b, err := tpcc.Setup(eng, e, tpcc.Config{
		Warehouses: warehouses,
		Clients:    cfg.Clients,
		Requests:   cfg.Requests,
		Warmup:     cfg.Warmup,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return b.Run(eng)
}

// Table4Result holds the paper's Table 4: tpmC per barrier setting and
// page size. Keyed TpmC[barrier?"On":"Off"][pageBytes].
type Table4Result struct {
	Table *stats.Table
	TpmC  map[string]map[int]float64
}

// Table4 reproduces Table 4: TPC-C throughput on the commercial database,
// write barriers on vs off, across page sizes.
func Table4(cfg TPCCConfig) (*Table4Result, error) {
	cfg.defaults()
	res := &Table4Result{TpmC: map[string]map[int]float64{"On": {}, "Off": {}}}
	tbl := stats.NewTable("Table 4: TPC-C throughput measured in tpmC", "TpmC", "16KB", "8KB", "4KB")
	for _, barrier := range []bool{true, false} {
		name := "Barrier Off"
		key := "Off"
		if barrier {
			name, key = "Barrier On", "On"
		}
		row := []any{name}
		for _, ps := range PageSizes {
			c := cfg
			c.PageBytes = ps
			c.Barrier = barrier
			r, err := RunTPCC(c)
			if err != nil {
				return nil, fmt.Errorf("table4 %s %dKB: %w", name, ps/storage.KB, err)
			}
			res.TpmC[key][ps] = r.TpmC()
			row = append(row, r.TpmC())
		}
		tbl.AddRow(row...)
	}
	res.Table = tbl
	return res, nil
}

// YCSBConfig scales the paper's Couchbase/YCSB experiment (Table 5).
type YCSBConfig struct {
	Docs       int64 // documents in the bucket (scaled-down 100 GB store)
	Operations int
	Seed       int64

	Barrier   bool
	BatchSize int
	UpdatePct int
}

func (c *YCSBConfig) defaults() {
	if c.Docs <= 0 {
		c.Docs = 2_000_000
	}
	if c.Operations <= 0 {
		c.Operations = 100_000
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.UpdatePct <= 0 {
		c.UpdatePct = 50
	}
}

// RunYCSB executes one Couchbase/YCSB cell on a DuraSSD.
func RunYCSB(cfg YCSBConfig) (*ycsb.Result, error) {
	cfg.defaults()
	eng := sim.New()
	defer eng.Close()
	dev, err := ssd.New(eng, ssd.DuraSSD(4))
	if err != nil {
		return nil, err
	}
	fs := host.NewFS(dev, cfg.Barrier)
	st, err := couch.Open(eng, fs, couch.Config{
		Docs:      cfg.Docs,
		BatchSize: cfg.BatchSize,
	})
	if err != nil {
		return nil, err
	}
	return ycsb.Run(eng, st, cfg.Docs, ycsb.Config{
		Operations: cfg.Operations,
		UpdatePct:  cfg.UpdatePct,
		Seed:       cfg.Seed,
	})
}

// Table5BatchSizes is the paper's batch-size sweep.
var Table5BatchSizes = []int{1, 2, 5, 10, 100}

// Table5Result holds the paper's Table 5: Couchbase OPS under write
// barriers on (a) and off (b). Keyed OPS[barrier]["100"|"50"][batch].
type Table5Result struct {
	On  *stats.Table
	Off *stats.Table
	OPS map[string]map[string]map[int]float64
}

// Table5 reproduces Table 5: YCSB throughput of the Couchbase-style store
// as the fsync batch size grows, barriers on and off, 100% and 50% updates.
func Table5(cfg YCSBConfig) (*Table5Result, error) {
	cfg.defaults()
	res := &Table5Result{OPS: map[string]map[string]map[int]float64{
		"On":  {"100": {}, "50": {}},
		"Off": {"100": {}, "50": {}},
	}}
	build := func(barrier bool, title, key string) (*stats.Table, error) {
		tbl := stats.NewTable(title, "batch-size", "1", "2", "5", "10", "100")
		for _, upd := range []int{100, 50} {
			row := []any{fmt.Sprintf("Update %d%%", upd)}
			for _, bs := range Table5BatchSizes {
				c := cfg
				c.Barrier = barrier
				c.BatchSize = bs
				c.UpdatePct = upd
				r, err := RunYCSB(c)
				if err != nil {
					return nil, fmt.Errorf("table5 barrier=%v upd=%d bs=%d: %w", barrier, upd, bs, err)
				}
				res.OPS[key][fmt.Sprint(upd)][bs] = r.OPS()
				row = append(row, r.OPS())
			}
			tbl.AddRow(row...)
		}
		return tbl, nil
	}
	var err error
	if res.On, err = build(true, "Table 5(a): Couchbase YCSB OPS, write barriers on", "On"); err != nil {
		return nil, err
	}
	if res.Off, err = build(false, "Table 5(b): Couchbase YCSB OPS, write barriers off", "Off"); err != nil {
		return nil, err
	}
	return res, nil
}
