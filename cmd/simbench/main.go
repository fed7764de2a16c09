// Command simbench measures the simulator's raw wall-clock speed on fixed
// seeded scenarios and emits the shared -json result schema. The committed
// BENCH_<n>.json files at the repo root record the trajectory PR by PR;
// -check compares a fresh run against one and fails on a >2x ns/event or a
// >1.15x allocs/event regression (the CI smoke gate).
//
// Usage:
//
//	go run ./cmd/simbench                          # run all scenarios, print a table
//	go run ./cmd/simbench -json report.json       # also write the report
//	go run ./cmd/simbench -check BENCH_18.json     # regression gate vs a committed baseline
//	go run ./cmd/simbench -scenario fio-randwrite-durassd -cpuprofile cpu.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"durassd/internal/simbench"
)

func main() {
	scenario := flag.String("scenario", "", "run only this scenario (default: all)")
	repeat := flag.Int("repeat", 3, "repetitions per scenario; the fastest run is reported")
	jsonPath := flag.String("json", "", "write results as a JSON report to this path (\"-\" = stdout)")
	checkPath := flag.String("check", "", "compare against a committed BENCH_*.json and fail on regression")
	checkFactor := flag.Float64("check-factor", 2.0, "ns/event regression factor that fails -check")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this path")
	shardsweep := flag.Bool("shardsweep", false, "measure the shards scenario at 1/2/4/8 workers and print the scaling table")
	flag.Parse()

	if *shardsweep {
		rows, err := simbench.ShardSweep([]int{1, 2, 4, 8}, *repeat)
		if err != nil {
			fatal(err)
		}
		base := rows[0].Result.EventsPerSec()
		fmt.Printf("shards scaling on %d CPUs (virtual-time schedule identical in every row):\n", runtime.NumCPU())
		if runtime.NumCPU() == 1 {
			fmt.Println("  single-core host: every row runs on one lane, so the ratios below are noise, not speedup")
		}
		for _, row := range rows {
			r := row.Result
			fmt.Printf("  workers=%d  %9d events  %10.0f events/sec  %7.1f ns/event  %.2fx\n",
				row.Workers, r.Events, r.EventsPerSec(), r.NsPerEvent(), r.EventsPerSec()/base)
			fmt.Printf("             %s\n", r.ClusterLine())
		}
		if *jsonPath != "" {
			if err := simbench.SweepReport(rows, *repeat).WriteFile(*jsonPath); err != nil {
				fatal(err)
			}
		}
		return
	}

	scenarios := simbench.Scenarios()
	if *scenario != "" {
		s, err := simbench.Find(*scenario)
		if err != nil {
			fatal(err)
		}
		scenarios = []simbench.Scenario{s}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var results []simbench.Result
	for _, s := range scenarios {
		r, err := simbench.MeasureBest(s, *repeat)
		if err != nil {
			fatal(err)
		}
		results = append(results, r)
		fmt.Printf("%-24s %9d events  %10.0f events/sec  %7.1f ns/event  %6.2f allocs/event  (%v)\n",
			r.Name, r.Events, r.EventsPerSec(), r.NsPerEvent(), r.AllocsPerEvent(), r.Wall.Round(100_000))
		if line := r.ClusterLine(); line != "" {
			fmt.Printf("%-24s %s\n", "", line)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}

	if *jsonPath != "" {
		rep := simbench.Report(results, *repeat)
		if err := rep.WriteFile(*jsonPath); err != nil {
			fatal(err)
		}
	}

	if *checkPath != "" {
		raw, err := os.ReadFile(*checkPath)
		if err != nil {
			fatal(err)
		}
		var base simbench.JSONBaseline
		if err := json.Unmarshal(raw, &base); err != nil {
			fatal(fmt.Errorf("simbench: parsing baseline %s: %w", *checkPath, err))
		}
		if base.Schema == 0 || base.Tool != "simbench" || len(base.Metrics) == 0 {
			fatal(fmt.Errorf("simbench: baseline %s has unexpected shape (tool=%q, %d metrics)",
				*checkPath, base.Tool, len(base.Metrics)))
		}
		skipped, err := simbench.CheckRegression(results, &base, *checkFactor)
		for _, name := range skipped {
			fmt.Fprintf(os.Stderr, "simbench: %s: ns/event not compared: %s has num_cpu %d, this host %d\n",
				name, *checkPath, base.Config.NumCPU, runtime.NumCPU())
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ok: no regression against %s (ns/event limit %.1fx)\n", *checkPath, *checkFactor)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
