// Quickstart: create a DuraSSD, write data with write barriers OFF, cut
// the power mid-workload, reboot, and verify that every acknowledged write
// survived — the paper's core guarantee, in ~60 lines.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"durassd"
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
	// Barriers off: fsync never sends flush-cache. On a volatile drive
	// this would risk data loss; DuraSSD's capacitors make it safe.
	fs := s.NewFS(dev, durassd.NoBarriers)

	pageBytes := dev.PageSize()
	acked := make(map[storage.LPN][]byte)

	// Cut the power 2 ms into the run, while writes are streaming.
	s.Engine().Schedule(2*time.Millisecond, func() {
		fmt.Printf("⚡ power failure at t=%v\n", s.Engine().Now())
		if err := durassd.PowerFail(dev); err != nil {
			log.Fatal(err)
		}
	})

	s.Run(func(p *sim.Proc) {
		file, err := fs.Create("data", 4096)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			page := bytes.Repeat([]byte{byte(i + 1)}, pageBytes)
			if err := file.WritePages(p, int64(i), 1, page); err != nil {
				fmt.Printf("write %d interrupted by the power cut: %v\n", i, err)
				return
			}
			// The write was acknowledged: DuraSSD now guarantees it.
			acked[storage.LPN(i)] = page
		}
	})
	fmt.Printf("acknowledged %d writes before the lights went out\n", len(acked))
	fmt.Printf("device dumped %d pages to the dump area under capacitor power\n",
		dev.Stats().DumpPages)

	// Reboot: the recovery manager replays the dump, then we audit.
	s.Run(func(p *sim.Proc) {
		if err := durassd.Reboot(p, dev); err != nil {
			log.Fatal(err)
		}
		file, err := fs.Open("data")
		if err != nil {
			log.Fatal(err)
		}
		buf := make([]byte, pageBytes)
		for lpn, want := range acked {
			if err := file.ReadPages(p, int64(lpn), 1, buf); err != nil {
				log.Fatalf("read %d: %v", lpn, err)
			}
			if !bytes.Equal(buf, want) {
				log.Fatalf("page %d lost or corrupted!", lpn)
			}
		}
		fmt.Printf("✓ all %d acknowledged writes intact after recovery (t=%v)\n",
			len(acked), p.Now())
	})
}
