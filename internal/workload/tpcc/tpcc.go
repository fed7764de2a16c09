// Package tpcc implements the TPC-C order-entry benchmark against the page
// engine (the paper's runs use its InnoDB profile): nine tables, the five
// standard transaction profiles at the standard mix, and the tpmC metric
// (NewOrder transactions per minute) — the workload behind the paper's
// Table 4. It imports pagedb by name, not through innodb's aliases: the
// compiler inlines Begin only from a directly imported package, and an
// inlined Begin keeps each Tx on the stack.
//
// The paper runs TPC-C on a commercial database that opens its files with
// O_DSYNC, "expecting a write barrier to be requested for every page it
// wrote"; the harness configures the engine accordingly.
package tpcc

import (
	"fmt"
	"math/rand"
	"time"

	"durassd/internal/dbsim/index"
	"durassd/internal/dbsim/pagedb"
	"durassd/internal/sim"
	"durassd/internal/stats"
)

// TxType enumerates the five TPC-C transactions.
type TxType int

// The TPC-C transaction profiles.
const (
	NewOrder TxType = iota
	Payment
	OrderStatus
	Delivery
	StockLevel
	numTx
)

// Standard mix percentages (TPC-C §5.2.4 minimums, NewOrder taking the
// remainder).
var txMix = [numTx]float64{
	NewOrder:    44.9,
	Payment:     43.1,
	OrderStatus: 4.0,
	Delivery:    4.0,
	StockLevel:  4.0,
}

// Config sizes a TPC-C run.
type Config struct {
	Warehouses int
	Clients    int
	Requests   int // measured transactions
	Warmup     int
	Seed       int64
}

// TPC-C scale constants.
const (
	districtsPerW = 10
	customersPerD = 3000
	stockPerW     = 100_000
	items         = 100_000
	linesPerOrder = 10
)

// Host CPU model: 32 cores, CPU per transaction, per page access and per
// page write.
const (
	cores    = 32
	baseCPU  = 300 * time.Microsecond
	pageCPU  = 40 * time.Microsecond
	writeCPU = 200 * time.Microsecond
)

// Bench is one TPC-C database.
type Bench struct {
	cfg Config
	e   *pagedb.Engine
	cpu *sim.Resource

	warehouse, district, customer *pagedb.Table
	stock, item                   *pagedb.Table
	orders, orderLine, newOrder   *pagedb.Table
	history                       *pagedb.Table

	nextOrder int64 // order id allocator
}

// Result is one run's outcome.
type Result struct {
	Total     int64
	NewOrders int64
	Elapsed   time.Duration
	Lat       [numTx]*stats.Hist
}

// TpmC returns NewOrder transactions per minute of virtual time.
func (r *Result) TpmC() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.NewOrders) / r.Elapsed.Minutes()
}

// Setup creates and loads the TPC-C schema.
func Setup(eng *sim.Engine, e *pagedb.Engine, cfg Config) (*Bench, error) {
	if cfg.Warehouses <= 0 || cfg.Clients <= 0 {
		return nil, fmt.Errorf("tpcc: Warehouses and Clients must be positive")
	}
	b := &Bench{cfg: cfg, e: e, cpu: sim.NewResource(eng, cores)}
	w := int64(cfg.Warehouses)
	create := func(name string, rows int64, rowBytes int, headroom int64) (*pagedb.Table, error) {
		t, err := e.CreateTable(name, index.Config{RowBytes: rowBytes, MaxRows: rows*headroom + 1})
		if err != nil {
			return nil, fmt.Errorf("tpcc: create %s: %w", name, err)
		}
		if err := t.BulkLoad(rows); err != nil {
			return nil, err
		}
		return t, nil
	}
	var err error
	if b.warehouse, err = create("warehouse", w, 100, 1); err != nil {
		return nil, err
	}
	if b.district, err = create("district", w*districtsPerW, 100, 1); err != nil {
		return nil, err
	}
	if b.customer, err = create("customer", w*districtsPerW*customersPerD, 600, 1); err != nil {
		return nil, err
	}
	if b.stock, err = create("stock", w*stockPerW, 300, 1); err != nil {
		return nil, err
	}
	if b.item, err = create("item", items, 80, 1); err != nil {
		return nil, err
	}
	// Orders grow during the run; reserve generous headroom.
	initialOrders := w * districtsPerW * customersPerD
	if b.orders, err = create("orders", initialOrders, 50, 2); err != nil {
		return nil, err
	}
	if b.orderLine, err = create("order_line", initialOrders*linesPerOrder, 60, 2); err != nil {
		return nil, err
	}
	if b.newOrder, err = create("new_order", initialOrders/3, 40, 8); err != nil {
		return nil, err
	}
	if b.history, err = create("history", initialOrders, 60, 2); err != nil {
		return nil, err
	}
	b.nextOrder = initialOrders
	return b, nil
}

// Run executes the benchmark and returns the measured result.
func (b *Bench) Run(eng *sim.Engine) (*Result, error) {
	cfg := b.cfg
	res := &Result{}
	for i := range res.Lat {
		res.Lat[i] = &stats.Hist{}
	}
	total := cfg.Warmup + cfg.Requests
	perClient := total / cfg.Clients
	warmPer := cfg.Warmup / cfg.Clients

	var firstErr error
	var started bool
	var startT time.Duration
	for c := 0; c < cfg.Clients; c++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*15485863))
		eng.Go(fmt.Sprintf("tpcc-%d", c), func(p *sim.Proc) {
			for i := 0; i < perClient; i++ {
				if i == warmPer && !started {
					started = true
					startT = p.Now()
				}
				tt := b.pickTx(rng)
				t0 := p.Now()
				if err := b.doTx(p, rng, tt); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				if i >= warmPer {
					res.Lat[tt].Record(p.Now() - t0)
					res.Total++
					if tt == NewOrder {
						res.NewOrders++
					}
				}
			}
		})
	}
	eng.Run()
	if firstErr != nil {
		return nil, firstErr
	}
	res.Elapsed = eng.Now() - startT
	return res, nil
}

func (b *Bench) pickTx(rng *rand.Rand) TxType {
	x := rng.Float64() * 100
	var cum float64
	for t := TxType(0); t < numTx; t++ {
		cum += txMix[t]
		if x < cum {
			return t
		}
	}
	return NewOrder
}

// Rank helpers (dense keys).
func (b *Bench) wRank(rng *rand.Rand) int64 { return rng.Int63n(int64(b.cfg.Warehouses)) }
func (b *Bench) dRank(w int64, rng *rand.Rand) int64 {
	return w*districtsPerW + rng.Int63n(districtsPerW)
}
func (b *Bench) cRank(d int64, rng *rand.Rand) int64 {
	return d*customersPerD + nonUniform(rng, 1023, customersPerD)
}
func (b *Bench) sRank(w int64, rng *rand.Rand) int64 {
	return w*stockPerW + nonUniform(rng, 8191, stockPerW)
}

// nonUniform is TPC-C's NURand distribution.
func nonUniform(rng *rand.Rand, a, x int64) int64 {
	return ((rng.Int63n(a+1) | rng.Int63n(x)) % x)
}

func (b *Bench) burnCPU(p *sim.Proc, pages int, writes int) {
	d := baseCPU + time.Duration(pages)*pageCPU + time.Duration(writes)*writeCPU
	b.cpu.Acquire(p, 1)
	p.Sleep(d)
	b.cpu.Release(1)
}

func (b *Bench) doTx(p *sim.Proc, rng *rand.Rand, tt TxType) error {
	switch tt {
	case NewOrder:
		return b.newOrderTx(p, rng)
	case Payment:
		return b.paymentTx(p, rng)
	case OrderStatus:
		return b.orderStatusTx(p, rng)
	case Delivery:
		return b.deliveryTx(p, rng)
	default:
		return b.stockLevelTx(p, rng)
	}
}

func (b *Bench) newOrderTx(p *sim.Proc, rng *rand.Rand) error {
	w := b.wRank(rng)
	d := b.dRank(w, rng)
	tx := b.e.Begin()
	b.burnCPU(p, 30, 13)
	if err := tx.Lookup(p, b.warehouse, w); err != nil {
		return err
	}
	if err := tx.Update(p, b.district, d); err != nil {
		return err
	}
	if err := tx.Lookup(p, b.customer, b.cRank(d, rng)); err != nil {
		return err
	}
	nItems := 5 + rng.Intn(11) // 5..15, avg 10
	for i := 0; i < nItems; i++ {
		if err := tx.Lookup(p, b.item, rng.Int63n(items)); err != nil {
			return err
		}
		if err := tx.Update(p, b.stock, b.sRank(w, rng)); err != nil {
			return err
		}
	}
	oid := b.nextOrder
	b.nextOrder++
	if err := tx.Insert(p, b.orders, oid); err != nil {
		return err
	}
	if err := tx.Insert(p, b.newOrder, oid%b.newOrder.Tree().Rows()+1); err != nil {
		return err
	}
	for i := 0; i < nItems; i++ {
		if err := tx.Insert(p, b.orderLine, oid*linesPerOrder+int64(i)); err != nil {
			return err
		}
	}
	return tx.Commit(p)
}

func (b *Bench) paymentTx(p *sim.Proc, rng *rand.Rand) error {
	w := b.wRank(rng)
	d := b.dRank(w, rng)
	tx := b.e.Begin()
	b.burnCPU(p, 8, 4)
	if err := tx.Update(p, b.warehouse, w); err != nil {
		return err
	}
	if err := tx.Update(p, b.district, d); err != nil {
		return err
	}
	if err := tx.Update(p, b.customer, b.cRank(d, rng)); err != nil {
		return err
	}
	if err := tx.Insert(p, b.history, b.nextOrder%b.history.Tree().Rows()); err != nil {
		return err
	}
	return tx.Commit(p)
}

func (b *Bench) orderStatusTx(p *sim.Proc, rng *rand.Rand) error {
	w := b.wRank(rng)
	d := b.dRank(w, rng)
	tx := b.e.Begin()
	b.burnCPU(p, 12, 0)
	if err := tx.Lookup(p, b.customer, b.cRank(d, rng)); err != nil {
		return err
	}
	oid := rng.Int63n(max(b.nextOrder, 1))
	if err := tx.Lookup(p, b.orders, oid); err != nil {
		return err
	}
	return tx.Scan(p, b.orderLine, oid*linesPerOrder, linesPerOrder)
}

func (b *Bench) deliveryTx(p *sim.Proc, rng *rand.Rand) error {
	w := b.wRank(rng)
	tx := b.e.Begin()
	b.burnCPU(p, 40, 30)
	for d := 0; d < districtsPerW; d++ {
		oid := rng.Int63n(max(b.nextOrder, 1))
		if err := tx.Delete(p, b.newOrder, oid%max(b.newOrder.Tree().Rows(), 1)); err != nil {
			return err
		}
		if err := tx.Update(p, b.orders, oid); err != nil {
			return err
		}
		if err := tx.Update(p, b.orderLine, oid*linesPerOrder); err != nil {
			return err
		}
		if err := tx.Update(p, b.customer, w*districtsPerW*customersPerD+rng.Int63n(districtsPerW*customersPerD)); err != nil {
			return err
		}
	}
	return tx.Commit(p)
}

func (b *Bench) stockLevelTx(p *sim.Proc, rng *rand.Rand) error {
	w := b.wRank(rng)
	d := b.dRank(w, rng)
	tx := b.e.Begin()
	b.burnCPU(p, 25, 0)
	if err := tx.Lookup(p, b.district, d); err != nil {
		return err
	}
	oid := rng.Int63n(max(b.nextOrder, 1))
	if err := tx.Scan(p, b.orderLine, oid*linesPerOrder, 20*linesPerOrder); err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		if err := tx.Lookup(p, b.stock, b.sRank(w, rng)); err != nil {
			return err
		}
	}
	return nil
}
