package pagedb_test

import (
	"testing"
	"time"

	"durassd/internal/dbsim/index"
	"durassd/internal/dbsim/pagedb"
	"durassd/internal/host"
	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// latencyDevice is a device that only takes time: it keeps no data and
// allocates nothing per command, so an allocation measured above it is the
// engine's.
type latencyDevice struct{ reg *iotrace.Registry }

func (d *latencyDevice) PageSize() int { return 4 * storage.KB }
func (d *latencyDevice) Pages() int64  { return 1 << 20 }
func (d *latencyDevice) Read(p *sim.Proc, _ iotrace.Req, _ storage.LPN, _ int, _ []byte) error {
	p.Sleep(80 * time.Microsecond)
	return nil
}
func (d *latencyDevice) Write(p *sim.Proc, _ iotrace.Req, _ storage.LPN, _ int, _ []byte) error {
	p.Sleep(30 * time.Microsecond)
	return nil
}
func (d *latencyDevice) Flush(p *sim.Proc, _ iotrace.Req) error {
	p.Sleep(10 * time.Microsecond)
	return nil
}
func (d *latencyDevice) Stats() *storage.Stats                         { return d.reg.Stats() }
func (d *latencyDevice) Registry() *iotrace.Registry                   { return d.reg }
func (d *latencyDevice) PreloadPages(storage.LPN, int64, []byte) error { return nil }

// TestWarmTransactionsDoNotAllocate runs Lookup, Update, Insert, Delete, Scan
// and Commit in timing-only mode over a 16-frame pool, so the measured
// rounds hit, miss and write back dirty victims, and requires zero
// allocations per round once the pool, the log and the engine's free lists
// are warm.
func TestWarmTransactionsDoNotAllocate(t *testing.T) {
	eachProfile(t, func(t *testing.T, pr profile) {
		eng := sim.New()
		defer eng.Close()
		fs := host.NewFS(&latencyDevice{reg: iotrace.NewRegistry()}, false)
		e, err := pr.open(eng, fs, fs, pagedb.Config{
			PageBytes:    4 * storage.KB,
			BufferBytes:  64 * storage.KB,
			DataPages:    30_000,
			LogFilePages: 4_000,
			LogFiles:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		const rows = 50_000
		tbl, err := e.CreateTable("t", index.Config{RowBytes: 200, MaxRows: 2 * rows})
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.BulkLoad(rows); err != nil {
			t.Fatal(err)
		}
		round := sim.NewQueue(eng)
		seed := uint64(1)
		rank := func() int64 {
			seed = seed*6364136223846793005 + 1442695040888963407
			return int64(seed>>33) % rows
		}
		eng.Go("tx", func(p *sim.Proc) {
			for {
				round.Wait(p)
				tx := e.Begin()
				for _, err := range []error{
					tx.Lookup(p, tbl, rank()),
					tx.Update(p, tbl, rank()),
					tx.Insert(p, tbl, rank()),
					tx.Delete(p, tbl, rank()),
					tx.Scan(p, tbl, rank(), 40),
					tx.Commit(p),
				} {
					if err != nil {
						t.Error(err)
					}
				}
			}
		})
		run := func() {
			round.WakeOne()
			eng.Run()
		}
		for i := 0; i < 500; i++ {
			run()
		}
		before := *e.Pool().Stats()
		if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
			t.Errorf("a warm round of six transaction steps allocates %v times, want 0", allocs)
		}
		after := e.Pool().Stats()
		if after.Hits == before.Hits || after.Misses == before.Misses || after.DirtyEvictions == before.DirtyEvictions {
			t.Errorf("measured rounds must hit, miss and evict dirty pages: before %+v, after %+v", before, *after)
		}
	})
}

// TestScanOfNoRowsReadsThePath: a scan of n <= 0 rows reads the search
// path to rank and nothing more.
func TestScanOfNoRowsReadsThePath(t *testing.T) {
	eachProfile(t, func(t *testing.T, pr profile) {
		r := newRig(t, pr, false, false, false)
		depth := int64(r.tbl.Tree().Depth())
		r.eng.Go("t", func(p *sim.Proc) {
			for _, n := range []int64{0, -1} {
				gets := r.e.Pool().Stats().Gets
				if err := r.e.Begin().Scan(p, r.tbl, 4_321, n); err != nil {
					t.Errorf("Scan(n=%d): %v", n, err)
				}
				if got := r.e.Pool().Stats().Gets - gets; got != depth {
					t.Errorf("Scan(n=%d) read %d pages, want the %d-page path", n, got, depth)
				}
			}
		})
		r.eng.Run()
		r.e.Close()
	})
}
