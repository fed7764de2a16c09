// pagesize: the paper's §2.4 argument in one run — on DuraSSD with write
// barriers off, shrinking the I/O unit from 16 KB to 4 KB roughly triples
// random I/O throughput, while on a disk it barely matters.
package main

import (
	"fmt"
	"log"

	"durassd"
	"durassd/internal/fio"
	"durassd/internal/storage"
)

func main() {
	for _, kind := range []durassd.DeviceKind{durassd.DuraSSD, durassd.HDD} {
		fmt.Printf("=== %s: 128-thread random writes, no barriers ===\n", kind)
		for _, pageBytes := range []int{16 * storage.KB, 8 * storage.KB, 4 * storage.KB} {
			s := durassd.NewSession()
			dev, err := s.NewDevice(kind, 16)
			if err != nil {
				log.Fatal(err)
			}
			fs := s.NewFS(dev, durassd.NoBarriers)
			res, err := fio.Run(s.Engine(), fs, fio.Job{
				Name:       "pagesize",
				Threads:    128,
				BlockBytes: pageBytes,
				Ops:        4000,
				Preload:    true,
				Seed:       int64(pageBytes),
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %2dKB pages: %8.0f IOPS  (mean latency %v)\n",
				pageBytes/storage.KB, res.IOPS(), res.Lat.Mean().Round(1000))
			s.Close()
		}
		fmt.Println()
	}
	fmt.Println("smaller pages multiply SSD throughput; the disk's seek time dwarfs the transfer either way")
}
