// atomickv: a journal-less key-value store built directly on DuraSSD's
// atomic page writes.
//
// The store is the byte-exact B+-tree from internal/btree: every mutation
// is a handful of single-page writes with no write-ahead log, no
// double-write buffer and no fsync. That design is only sound because the
// device guarantees each page write lands atomically and durably on ack —
// the "tremendous opportunity ... for the leaner and more robust design of
// a database system" the paper claims. The demo hammers the store while
// cutting power repeatedly; after each reboot the tree must check clean
// and contain every acknowledged update.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"durassd"
	"durassd/internal/btree"
	"durassd/internal/host"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

func main() {
	s := durassd.NewSession()
	defer s.Close()
	dev, err := s.NewDevice(durassd.DuraSSD, 16)
	if err != nil {
		log.Fatal(err)
	}
	fs := s.NewFS(dev, durassd.NoBarriers)

	var file *host.File
	s.Run(func(p *sim.Proc) {
		file, err = fs.Create("kv.db", dev.Pages()/2)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := btree.Create(p, file, 4*storage.KB); err != nil {
			log.Fatal(err)
		}
	})

	rng := rand.New(rand.NewSource(7))
	acked := make(map[uint64]byte) // key -> last acknowledged value
	const rounds = 5

	for round := 1; round <= rounds; round++ {
		// Cut power at a random instant during this round's writes.
		cut := time.Duration(1+rng.Intn(20)) * time.Millisecond
		start := s.Engine().Now()
		s.Engine().Schedule(cut, func() { _ = durassd.PowerFail(dev) })

		writes := 0
		s.Run(func(p *sim.Proc) {
			tree, err := btree.Open(p, file, 4*storage.KB)
			if err != nil {
				log.Fatalf("round %d open: %v", round, err)
			}
			for i := 0; i < 2000; i++ {
				k := uint64(rng.Intn(500))
				v := byte(rng.Intn(255) + 1)
				if err := tree.Put(p, k, []byte{v}); err != nil {
					return // power failed; unacked update rolls back
				}
				acked[k] = v
				writes++
			}
		})
		fmt.Printf("round %d: %d puts acknowledged, power cut after %v\n",
			round, writes, s.Engine().Now()-start-cut+cut)

		// Reboot and audit: structure valid, every acked value present.
		s.Run(func(p *sim.Proc) {
			if err := durassd.Reboot(p, dev); err != nil {
				log.Fatalf("round %d reboot: %v", round, err)
			}
			tree, err := btree.Open(p, file, 4*storage.KB)
			if err != nil {
				log.Fatalf("round %d reopen: %v", round, err)
			}
			if err := tree.Check(p); err != nil {
				log.Fatalf("round %d structure: %v", round, err)
			}
			for k, want := range acked {
				v, err := tree.Get(p, k)
				if err != nil || v[0] != want {
					log.Fatalf("round %d: key %d = %v (%v), want %d", round, k, v, err, want)
				}
			}
		})
		fmt.Printf("round %d: ✓ tree valid, all %d acknowledged keys intact\n",
			round, len(acked))
	}
	fmt.Println("journal-less KV store survived", rounds, "power cuts")
}
