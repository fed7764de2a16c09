// Command repro regenerates the paper's evaluation: Tables 1–5, Figures 5–6
// and the extensions (endurance, per-layer breakdown, read tail, volume
// geometries, media reliability), one experiment per name.
//
// Usage:
//
//	repro -run name[,name…] [-scale N] [-ops N] [-seed N] [-json path]
//	      [-cpuprofile path] [-memprofile path]
//
// The names are table1 table2 fig5 fig6 table3 table4 table5 endurance
// breakdown tail volume media. Experiments run in the order given and print
// their tables on stdout. -scale (capacity divisor: larger is smaller and
// faster) and -ops (operations per table cell) override each experiment's
// own default when non-zero. -json writes a machine-readable report of every
// table and metric; with "-" the report goes to stdout and the tables to
// stderr. An empty or unknown name exits 2.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"durassd/internal/repro"
)

func main() {
	log.SetFlags(0)
	runList := flag.String("run", "", "comma-separated experiments to run, in order")
	scale := flag.Int("scale", 0, "capacity divisor (0 = each experiment's default)")
	ops := flag.Int("ops", 0, "operations per table cell (0 = each experiment's default)")
	seed := flag.Int64("seed", 1, "workload seed")
	jsonPath := flag.String("json", "", "write results as a JSON report to this path (\"-\" = stdout)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this path")
	flag.Parse()

	names := strings.Split(*runList, ",")
	exps := make([]repro.Experiment, len(names))
	for i, name := range names {
		e, err := repro.Lookup(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			flag.Usage()
			os.Exit(2)
		}
		exps[i] = e
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
	}()

	out := os.Stdout
	if *jsonPath == "-" {
		out = os.Stderr
	}
	rep := repro.NewJSONReport("repro")
	rep.SetConfig("run", names)
	rep.SetConfig("scale", *scale)
	rep.SetConfig("ops", *ops)
	rep.SetConfig("seed", *seed)
	for _, e := range exps {
		res, err := e.Run(repro.Config{Scale: *scale, Ops: *ops, Seed: *seed})
		if err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
		for _, t := range res.Tables {
			fmt.Fprintln(out, t)
			rep.AddTable(t)
		}
		for _, k := range repro.SortedKeys(res.Metrics) {
			rep.AddMetric(k, res.Metrics[k])
		}
	}
	if *jsonPath != "" {
		if err := rep.WriteFile(*jsonPath); err != nil {
			log.Fatal(err)
		}
	}
}
