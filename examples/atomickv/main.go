// atomickv: the paper's lean database design on DuraSSD — an InnoDB-profile
// page engine with the double-write buffer off and write barriers off.
//
// Without the double-write buffer nothing in software repairs a torn page,
// and without barriers fsync never forces the device cache. That design is
// only sound because DuraSSD writes every page atomically and keeps its cache
// through a power cut — the "tremendous opportunity ... for the leaner and
// more robust design of a database system" the paper claims. Each round
// loads a table, commits single-row updates until power fails at a random
// instant, reboots the device, reopens and recovers the engine, and checks
// that every page an acknowledged commit wrote reads that version or newer.
package main

import (
	"fmt"
	"log"
	"maps"
	"math/rand"
	"slices"
	"time"

	"durassd"
	"durassd/internal/dbsim/buffer"
	"durassd/internal/dbsim/index"
	"durassd/internal/innodb"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

const (
	rows    = 4_000
	writers = 8
)

var cfg = innodb.Config{
	PageBytes:    4 * storage.KB,
	BufferBytes:  256 * storage.KB, // a tiny pool: dirty pages reach the device fast
	DataPages:    20_000,
	LogFiles:     1,
	LogFilePages: 4_000,
	RealBytes:    true,  // page images and redo records, so recovery is real
	DoubleWrite:  false, // no torn-page protection in software
}

func main() {
	rng := rand.New(rand.NewSource(7))
	const rounds = 5
	for round := 1; round <= rounds; round++ {
		cut := time.Duration(1+rng.Intn(40)) * time.Millisecond
		updates, pages, redo := runRound(rng, cut)
		fmt.Printf("round %d: %d updates acknowledged before the cut at %v; %d redo records applied; ✓ all %d acked pages intact\n",
			round, updates, cut, redo, pages)
	}
	fmt.Println("double-write-free engine survived", rounds, "power cuts")
}

// runRound loads a fresh database, updates it until power fails at cut and
// audits the recovered engine. It returns the acknowledged updates, the
// pages they wrote and the redo records recovery applied.
func runRound(rng *rand.Rand, cut time.Duration) (updates, pages, redo int) {
	s := durassd.NewSession()
	defer s.Close()
	dev, err := s.NewDevice(durassd.DuraSSD, 16)
	if err != nil {
		log.Fatal(err)
	}
	fs := s.NewFS(dev, durassd.NoBarriers)
	e, err := innodb.Open(s.Engine(), fs, fs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	t, err := e.CreateTable("kv", index.Config{RowBytes: 200, MaxRows: 2 * rows})
	if err != nil {
		log.Fatal(err)
	}
	if err := t.BulkLoad(rows); err != nil {
		log.Fatal(err)
	}

	acked := make(map[buffer.PageID]uint64) // page -> last acknowledged version
	s.Engine().Schedule(cut, func() { _ = durassd.PowerFail(dev) })
	for c := 0; c < writers; c++ {
		s.Go(fmt.Sprintf("writer-%d", c), func(p *sim.Proc) {
			for {
				tx := e.Begin()
				if tx.Update(p, t, rng.Int63n(rows)) != nil || tx.Commit(p) != nil {
					return // power failed; the unacknowledged update may roll back
				}
				for _, pv := range tx.Touched() {
					acked[pv.ID] = max(acked[pv.ID], pv.Version)
				}
				updates++
			}
		})
	}
	s.Engine().Run()
	e.Close() // stops the pre-crash engine's page cleaner
	if updates == 0 {
		log.Fatalf("no update acknowledged before the cut at %v", cut)
	}

	s.Run(func(p *sim.Proc) {
		if err := durassd.Reboot(p, dev); err != nil {
			log.Fatalf("reboot: %v", err)
		}
		e, err := innodb.Reopen(s.Engine(), fs, fs, cfg)
		if err != nil {
			log.Fatalf("reopen: %v", err)
		}
		defer e.Close()
		rep, err := e.Recover(p)
		if err != nil {
			log.Fatalf("recover: %v", err)
		}
		redo = rep.RedoApplied
		// Each probe is a device read: go in page order, not the map's.
		for _, id := range slices.Sorted(maps.Keys(acked)) {
			got, ok, err := e.PageVersionOnDisk(p, id)
			if err != nil || !ok || got < acked[id] {
				log.Fatalf("page %d: acked v%d, found v%d (intact %v, err %v)", id, acked[id], got, ok, err)
			}
		}
	})
	return updates, len(acked), redo
}
