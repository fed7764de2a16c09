// Package linkbench implements the LinkBench social-graph benchmark
// (Armstrong et al., SIGMOD'13) against the page engine (the paper's runs
// use its InnoDB profile): three tables (nodes, links, link counts), the
// standard ten-operation mix with ~31% writes, and power-law access skew —
// the workload behind the paper's Figure 5, Figure 6 and Table 3. It imports
// pagedb by name, not through innodb's aliases: the compiler inlines Begin
// only from a directly imported package, and an inlined Begin keeps each Tx
// on the stack.
package linkbench

import (
	"fmt"
	"math/rand"
	"time"

	"durassd/internal/dbsim/index"
	"durassd/internal/dbsim/pagedb"
	"durassd/internal/sim"
	"durassd/internal/stats"
)

// OpType enumerates the LinkBench request types (Table 3's rows).
type OpType int

// The ten LinkBench operations.
const (
	GetNode OpType = iota
	CountLink
	GetLinkList
	MultigetLink
	AddNode
	DeleteNode
	UpdateNode
	AddLink
	DeleteLink
	UpdateLink
	numOps
)

// String returns the paper's Table 3 name for the operation.
func (o OpType) String() string {
	return [...]string{"Get Node", "Count Link", "Get Link List", "Multiget Link",
		"ADD Node", "Delete Node", "Update Node", "Add Link", "Delete Link", "Update Link"}[o]
}

// IsWrite reports whether the operation mutates the graph.
func (o OpType) IsWrite() bool { return o >= AddNode }

// opMix is the standard LinkBench workload mix in percent (sums to 100):
// ~69% reads dominated by link-list scans, ~31% writes.
var opMix = [numOps]float64{
	GetNode:      12.9,
	CountLink:    4.9,
	GetLinkList:  50.7,
	MultigetLink: 0.5,
	AddNode:      2.6,
	DeleteNode:   1.0,
	UpdateNode:   7.4,
	AddLink:      9.0,
	DeleteLink:   3.0,
	UpdateLink:   8.0,
}

// Config sizes a LinkBench run.
type Config struct {
	Nodes    int64 // graph nodes (rows in the node table)
	Clients  int   // concurrent request threads (paper: 128)
	Requests int   // measured requests
	Warmup   int   // unmeasured warm-up requests
	Seed     int64

	// OnMeasureStart, if set, fires once when the warm-up ends and
	// measurement begins (harnesses snapshot device counters here).
	OnMeasureStart func()
}

const (
	linksPerNode = 10 // average out-links per node
	listLength   = 10 // rows returned by Get Link List

	// The zipfian node skew: exponent and plateau.
	zipfS = 1.01
	zipfV = 20

	// Host CPU model: the paper's server has 32 cores; MySQL burns CPU per
	// request and per page access, which caps throughput when I/O is cheap.
	cores    = 32
	baseCPU  = 300 * time.Microsecond // per request
	writeCPU = 300 * time.Microsecond // extra per write request
)

// Result is one LinkBench run's outcome.
type Result struct {
	Requests  int64
	Elapsed   time.Duration
	PerOp     [numOps]*stats.Hist
	MissRatio float64
}

// TPS returns transactions per second of virtual time.
func (r *Result) TPS() float64 { return stats.Throughput(r.Requests, r.Elapsed) }

// Hist returns the latency histogram of one operation type.
func (r *Result) Hist(o OpType) *stats.Hist { return r.PerOp[o] }

// OpTypes lists all operation types in Table 3 order.
func OpTypes() []OpType {
	ops := make([]OpType, numOps)
	for i := range ops {
		ops[i] = OpType(i)
	}
	return ops
}

// Bench drives LinkBench against an engine.
type Bench struct {
	cfg   Config
	e     *pagedb.Engine
	nodes *pagedb.Table
	links *pagedb.Table
	cnts  *pagedb.Table
	cpu   *sim.Resource
	maxID int64
	// pageCPU is the CPU per page access: larger pages cost more
	// (checksums, binary search over more rows, bigger memcpys).
	pageCPU time.Duration
}

// Setup creates and bulk-loads the LinkBench schema on the engine.
func Setup(eng *sim.Engine, e *pagedb.Engine, cfg Config) (*Bench, error) {
	if cfg.Nodes <= 0 || cfg.Clients <= 0 {
		return nil, fmt.Errorf("linkbench: Nodes and Clients must be positive")
	}
	b := &Bench{cfg: cfg, e: e, maxID: cfg.Nodes,
		pageCPU: 35*time.Microsecond + 3*time.Microsecond*time.Duration(e.PageBytes()/1024)}
	var err error
	// Row sizes approximate LinkBench's MySQL schema footprints.
	if b.nodes, err = e.CreateTable("nodetable", index.Config{
		RowBytes: 300, MaxRows: cfg.Nodes*5/4 + 1,
	}); err != nil {
		return nil, err
	}
	if b.links, err = e.CreateTable("linktable", index.Config{
		RowBytes: 150, MaxRows: cfg.Nodes*linksPerNode*6/5 + 1,
	}); err != nil {
		return nil, err
	}
	if b.cnts, err = e.CreateTable("counttable", index.Config{
		RowBytes: 50, MaxRows: cfg.Nodes*5/4 + 1,
	}); err != nil {
		return nil, err
	}
	if err = b.nodes.BulkLoad(cfg.Nodes); err != nil {
		return nil, err
	}
	if err = b.links.BulkLoad(cfg.Nodes * linksPerNode); err != nil {
		return nil, err
	}
	if err = b.cnts.BulkLoad(cfg.Nodes); err != nil {
		return nil, err
	}
	b.cpu = sim.NewResource(eng, cores)
	return b, nil
}

// Run executes warmup + measured requests with cfg.Clients concurrent
// clients and returns the measured result. It drives the engine's
// simulation to completion.
func (b *Bench) Run(eng *sim.Engine) (*Result, error) {
	cfg := b.cfg
	res := &Result{}
	for i := range res.PerOp {
		res.PerOp[i] = &stats.Hist{}
	}
	total := cfg.Warmup + cfg.Requests
	perClient := total / cfg.Clients
	warmPer := cfg.Warmup / cfg.Clients

	var firstErr error
	var started bool
	var startT time.Duration
	var startGets, startMiss int64
	for c := 0; c < cfg.Clients; c++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*104729))
		zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(cfg.Nodes-1))
		eng.Go(fmt.Sprintf("lb-client-%d", c), func(p *sim.Proc) {
			for i := 0; i < perClient; i++ {
				if i == warmPer && !started {
					started = true
					startT = p.Now()
					st := b.e.Pool().Stats()
					startGets, startMiss = st.Gets, st.Misses
					if cfg.OnMeasureStart != nil {
						cfg.OnMeasureStart()
					}
				}
				op := b.pickOp(rng)
				t0 := p.Now()
				if err := b.doOp(p, rng, zipf, op); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				if i >= warmPer {
					res.PerOp[op].Record(p.Now() - t0)
					res.Requests++
				}
			}
		})
	}
	eng.Run()
	if firstErr != nil {
		return nil, firstErr
	}
	res.Elapsed = eng.Now() - startT
	st := b.e.Pool().Stats()
	if gets := st.Gets - startGets; gets > 0 {
		res.MissRatio = float64(st.Misses-startMiss) / float64(gets)
	}
	return res, nil
}

func (b *Bench) pickOp(rng *rand.Rand) OpType {
	x := rng.Float64() * 100
	var cum float64
	for op := OpType(0); op < numOps; op++ {
		cum += opMix[op]
		if x < cum {
			return op
		}
	}
	return GetLinkList
}

// nodeID draws a node and scatters it across the key space: Facebook's
// caching tier strips the temporal and spatial locality from the traffic
// that reaches MySQL (paper §4.1), so hot nodes are NOT neighbors on disk.
// Scattering is what makes small pages pollute the buffer pool less.
func (b *Bench) nodeID(zipf *rand.Zipf) int64 {
	hot := int64(zipf.Uint64())
	return int64((uint64(hot) * 0x9E3779B97F4A7C15) % uint64(b.cfg.Nodes))
}

func (b *Bench) linkRank(id int64, rng *rand.Rand) int64 {
	return id*linksPerNode + rng.Int63n(linksPerNode)
}

// burnCPU models server CPU for a request touching `pages` pages.
func (b *Bench) burnCPU(p *sim.Proc, op OpType, pages int) {
	d := baseCPU + time.Duration(pages)*b.pageCPU
	if op.IsWrite() {
		d += writeCPU
	}
	b.cpu.Acquire(p, 1)
	p.Sleep(d)
	b.cpu.Release(1)
}

func (b *Bench) doOp(p *sim.Proc, rng *rand.Rand, zipf *rand.Zipf, op OpType) error {
	id := b.nodeID(zipf)
	tx := b.e.Begin()
	var err error
	var pages int
	switch op {
	case GetNode:
		pages = b.nodes.Tree().Depth()
		b.burnCPU(p, op, pages)
		err = tx.Lookup(p, b.nodes, id)
	case CountLink:
		pages = b.cnts.Tree().Depth()
		b.burnCPU(p, op, pages)
		err = tx.Lookup(p, b.cnts, id)
	case GetLinkList:
		pages = b.links.Tree().Depth() + 1
		b.burnCPU(p, op, pages)
		err = tx.Scan(p, b.links, id*linksPerNode, listLength)
	case MultigetLink:
		pages = b.links.Tree().Depth() * 2
		b.burnCPU(p, op, pages)
		if err = tx.Lookup(p, b.links, b.linkRank(id, rng)); err == nil {
			err = tx.Lookup(p, b.links, b.linkRank(id, rng))
		}
	case AddNode:
		pages = b.nodes.Tree().Depth()
		b.burnCPU(p, op, pages)
		b.maxID++
		err = tx.Insert(p, b.nodes, b.maxID)
	case DeleteNode:
		pages = b.nodes.Tree().Depth() + b.cnts.Tree().Depth()
		b.burnCPU(p, op, pages)
		if err = tx.Delete(p, b.nodes, id); err == nil {
			err = tx.Delete(p, b.cnts, id)
		}
	case UpdateNode:
		pages = b.nodes.Tree().Depth()
		b.burnCPU(p, op, pages)
		err = tx.Update(p, b.nodes, id)
	case AddLink:
		pages = b.links.Tree().Depth() + b.cnts.Tree().Depth()
		b.burnCPU(p, op, pages)
		if err = tx.Insert(p, b.links, b.linkRank(id, rng)); err == nil {
			err = tx.Update(p, b.cnts, id)
		}
	case DeleteLink:
		pages = b.links.Tree().Depth() + b.cnts.Tree().Depth()
		b.burnCPU(p, op, pages)
		if err = tx.Delete(p, b.links, b.linkRank(id, rng)); err == nil {
			err = tx.Update(p, b.cnts, id)
		}
	case UpdateLink:
		pages = b.links.Tree().Depth()
		b.burnCPU(p, op, pages)
		err = tx.Update(p, b.links, b.linkRank(id, rng))
	}
	if err != nil {
		return err
	}
	return tx.Commit(p)
}
