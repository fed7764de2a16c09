// Package ycsb implements the Yahoo! Cloud Serving Benchmark core
// workloads against the couch document store. The paper uses workload-A
// (50% reads / 50% updates over a zipfian key space) and a 100%-update
// variant to evaluate DuraSSD's effect on Couchbase (Table 5).
package ycsb

import (
	"fmt"
	"math/rand"
	"time"

	"durassd/internal/couch"
	"durassd/internal/sim"
	"durassd/internal/stats"
)

// Config sizes a YCSB run.
type Config struct {
	Operations int // total operations (paper: 200,000)
	UpdatePct  int // 50 for workload-A, 100 for the update-only variant
	Threads    int // paper: single thread
	Seed       int64
}

// The zipfian key skew: exponent and plateau.
const (
	zipfS = 1.01
	zipfV = 50
)

func (c *Config) defaults() {
	if c.Threads <= 0 {
		c.Threads = 1
	}
}

// Result is one run's outcome.
type Result struct {
	Ops     int64
	Elapsed time.Duration
	Lat     stats.Hist
}

// OPS returns operations per second of virtual time (the paper's metric).
func (r *Result) OPS() float64 { return stats.Throughput(r.Ops, r.Elapsed) }

// Run drives cfg against the store and returns the result. It runs the
// simulation to completion.
func Run(eng *sim.Engine, st *couch.Store, docs int64, cfg Config) (*Result, error) {
	pd := Start(eng, st, docs, cfg)
	eng.Run()
	return pd.Result()
}

// Pending is a started run whose simulation the caller drives (Engine.Run,
// or Cluster.Run when this store is one shard of a multi-domain
// benchmark). Collect the outcome with Result after the run drains.
type Pending struct {
	eng      *sim.Engine
	res      *Result
	firstErr *error
	start    time.Duration
}

// Result returns the run outcome; call it only after the simulation has
// drained.
func (pd *Pending) Result() (*Result, error) {
	if *pd.firstErr != nil {
		return nil, *pd.firstErr
	}
	pd.res.Elapsed = pd.eng.Now() - pd.start
	return pd.res, nil
}

// Start spawns the client threads on eng without driving the simulation,
// in exactly the order Run would — the event schedule is identical, only
// the caller owns the Run.
func Start(eng *sim.Engine, st *couch.Store, docs int64, cfg Config) *Pending {
	cfg.defaults()
	res := &Result{}
	perThread := cfg.Operations / cfg.Threads
	var firstErr error
	pd := &Pending{eng: eng, res: res, firstErr: &firstErr, start: eng.Now()}
	for t := 0; t < cfg.Threads; t++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*22695477))
		zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(docs-1))
		eng.Go(fmt.Sprintf("ycsb-%d", t), func(p *sim.Proc) {
			for i := 0; i < perThread; i++ {
				key := int64(zipf.Uint64())
				t0 := p.Now()
				var err error
				if rng.Intn(100) < cfg.UpdatePct {
					err = st.Update(p, key)
				} else {
					// Couchbase serves the hot set from its managed cache;
					// zipfian traffic hits it most of the time.
					cached := rng.Intn(100) < 80
					err = st.Read(p, key, cached)
				}
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				res.Lat.Record(p.Now() - t0)
				res.Ops++
			}
		})
	}
	return pd
}
