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

// tpccCell is one run of the paper's commercial-DBMS TPC-C experiment: 1000
// warehouses (~100 GB) with a 2 GB buffer, shrunk by Scale with the 2%
// buffer:database ratio preserved, Ops measured transactions from 64
// clients after Ops/4 warm-up ones. The engine opens its data file with
// O_DSYNC and runs without a double-write buffer, as §4.3.2 describes.
type tpccCell struct {
	Config
	pageBytes int
	barrier   bool
}

// runTPCC executes one TPC-C cell.
func runTPCC(c tpccCell) (*tpcc.Result, error) {
	eng := sim.New()
	defer eng.Close()
	e, _, err := openInnoDB(eng, c.barrier, innodb.Config{
		PageBytes:   c.pageBytes,
		BufferBytes: 2 * storage.GB / int64(c.Scale),
		ODSync:      true,
	})
	if err != nil {
		return nil, err
	}
	defer e.Close()

	b, err := tpcc.Setup(eng, e, tpcc.Config{
		Warehouses: max(1000/c.Scale, 4),
		Clients:    64,
		Requests:   c.Ops,
		Warmup:     c.Ops / 4,
		Seed:       c.Seed,
	})
	if err != nil {
		return nil, err
	}
	return b.Run(eng)
}

// table4 reproduces Table 4: TPC-C throughput on the commercial database,
// write barriers on vs off, across page sizes. Metrics:
// table4/barrier={On,Off}/page=<bytes> (tpmC).
func table4(cfg Config) (*Result, error) {
	res := newResult()
	tbl := stats.NewTable("Table 4: TPC-C throughput measured in tpmC", "TpmC", "16KB", "8KB", "4KB")
	for _, barrier := range []bool{true, false} {
		key := onOff(barrier)
		row := []any{"Barrier " + key}
		for _, ps := range pageSizes {
			r, err := runTPCC(tpccCell{Config: cfg, pageBytes: ps, barrier: barrier})
			if err != nil {
				return nil, fmt.Errorf("table4 Barrier %s %dKB: %w", key, ps/storage.KB, err)
			}
			res.Metrics[fmt.Sprintf("table4/barrier=%s/page=%d", key, ps)] = r.TpmC()
			row = append(row, r.TpmC())
		}
		tbl.AddRow(row...)
	}
	res.Tables = []*stats.Table{tbl}
	return res, nil
}

// onOff names a barrier setting as the paper's tables do.
func onOff(barrier bool) string {
	if barrier {
		return "On"
	}
	return "Off"
}

// ycsbDocs is the bucket size: the paper's 100 GB store, scaled down.
const ycsbDocs = 2_000_000

// ycsbCell is one run of the paper's Couchbase/YCSB experiment (Table 5):
// Ops operations against a bucket of ycsbDocs documents on a DuraSSD.
type ycsbCell struct {
	Config
	barrier   bool
	batchSize int
	updatePct int
}

// runYCSB executes one Couchbase/YCSB cell on a DuraSSD.
func runYCSB(c ycsbCell) (*ycsb.Result, error) {
	eng := sim.New()
	defer eng.Close()
	dev, err := ssd.New(eng, ssd.DuraSSD(4))
	if err != nil {
		return nil, err
	}
	fs := host.NewFS(dev, c.barrier)
	st, err := couch.Open(eng, fs, couch.Config{
		Docs:      ycsbDocs,
		BatchSize: c.batchSize,
	})
	if err != nil {
		return nil, err
	}
	return ycsb.Run(eng, st, ycsbDocs, ycsb.Config{
		Operations: c.Ops,
		UpdatePct:  c.updatePct,
		Seed:       c.Seed,
	})
}

// table5BatchSizes is the paper's batch-size sweep.
var table5BatchSizes = []int{1, 2, 5, 10, 100}

// table5 reproduces Table 5: YCSB throughput of the Couchbase-style store
// (ycsbDocs documents at every size) as the fsync batch size
// grows, barriers on (a) and off (b), 100% and 50% updates. Metrics:
// table5/barrier={On,Off}/{100,50}/batch=<n> (OPS).
func table5(cfg Config) (*Result, error) {
	res := newResult()
	for _, barrier := range []bool{true, false} {
		title := "Table 5(a): Couchbase YCSB OPS, write barriers on"
		if !barrier {
			title = "Table 5(b): Couchbase YCSB OPS, write barriers off"
		}
		tbl := stats.NewTable(title, "batch-size", "1", "2", "5", "10", "100")
		for _, upd := range []int{100, 50} {
			row := []any{fmt.Sprintf("Update %d%%", upd)}
			for _, bs := range table5BatchSizes {
				r, err := runYCSB(ycsbCell{Config: cfg, barrier: barrier, batchSize: bs, updatePct: upd})
				if err != nil {
					return nil, fmt.Errorf("table5 barrier=%v upd=%d bs=%d: %w", barrier, upd, bs, err)
				}
				res.Metrics[fmt.Sprintf("table5/barrier=%s/%d/batch=%d", onOff(barrier), upd, bs)] = r.OPS()
				row = append(row, r.OPS())
			}
			tbl.AddRow(row...)
		}
		res.Tables = append(res.Tables, tbl)
	}
	return res, nil
}
