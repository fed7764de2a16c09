// powerfail: the same workload, the same power cut, on two drives — the
// capacitor-backed DuraSSD and a conventional volatile-cache SSD — both
// running in the fast configuration (write barriers off).
//
// DuraSSD keeps every acknowledged write; the volatile drive silently loses
// whatever still sat in its cache, and can leave a shorn (half-written)
// page behind — the anomalies the paper cites from the FAST'13 power-fault
// study (§5.2).
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
	for _, kind := range []durassd.DeviceKind{durassd.DuraSSD, durassd.SSDA} {
		fmt.Printf("=== %s, write barriers OFF ===\n", kind)
		s := durassd.NewSession()
		dev, err := s.NewDevice(kind, 16)
		if err != nil {
			log.Fatal(err)
		}
		fs := s.NewFS(dev, durassd.NoBarriers)

		pageBytes := dev.PageSize()
		acked := make(map[storage.LPN][]byte)
		s.Engine().Schedule(3*time.Millisecond, func() { _ = durassd.PowerFail(dev) })

		s.Run(func(p *sim.Proc) {
			file, err := fs.Create("data", 8192)
			if err != nil {
				log.Fatal(err)
			}
			for i := 0; ; i++ {
				page := bytes.Repeat([]byte{byte(i%250 + 1)}, pageBytes)
				if err := file.WritePages(p, int64(i%1000), 1, page); err != nil {
					return
				}
				acked[storage.LPN(i%1000)] = page
			}
		})
		fmt.Printf("  acknowledged writes before the cut: %d\n", len(acked))

		lost, torn := 0, 0
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
					log.Fatal(err)
				}
				switch {
				case bytes.Equal(buf, want):
					// survived
				case isTorn(buf):
					torn++
				default:
					lost++
				}
			}
		})
		st := dev.Stats()
		fmt.Printf("  device says: %d pages dumped under capacitor power, %d pages lost, %d torn by the cut\n",
			st.DumpPages, st.LostPages, st.TornPages)
		fmt.Printf("  audit says:  %d acknowledged writes lost, %d torn pages visible\n", lost, torn)
		if lost == 0 && torn == 0 {
			fmt.Println("  ✓ every acknowledged write survived")
		} else {
			fmt.Println("  ✗ DATA LOSS — this is why volatile caches force barriers+fsync")
		}
		fmt.Println()
		s.Close()
	}
}

// isTorn recognizes the half-old/half-garbage image a shorn write leaves.
func isTorn(page []byte) bool {
	half := len(page) / 2
	for i := half; i < len(page); i++ {
		if page[i] == 0xde^byte(i) {
			return true
		}
		if i > half+8 {
			break
		}
	}
	return false
}
