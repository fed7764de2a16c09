// Command bench is the repository's benchmark: five closed-loop workloads
// measured on two clocks — the wall clock of the simulator (host_*) and the
// virtual time of the modelled DuraSSD stack (sim_*) — plus a traced pass
// that attributes the cost layer by layer. README.md defines every metric
// and workload; BENCHMARK.json at the repo root declares them to the driver.
//
//	go run ./cmd/bench -seed 1                      # the suite: every workload, repeats, traced pass, checks
//	go run ./cmd/bench -seed 1 -json out.json       # also write the report
//	go run ./cmd/bench -compare a.json b.json       # two reports, metric by metric against the bounds
//	go run ./cmd/bench -workload shards -seed 3 -seconds 9 -trace 0   # one timed run (what the driver calls)
//	go run ./cmd/bench -workload shards -seed 3 -seconds 9 -trace 1   # one traced run
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and arguments passed in, so the tests drive
// the same code path the command line does.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{}
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the only input that varies the generated load")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "measured length of one run on the reference host; sizes the op counts")
	fs.IntVar(&o.trace, "trace", -1, "make one run in this process and print its result as the last line: 0 = timed run (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	fs.IntVar(&o.repeats, "repeats", 5, "suite: timed runs per workload, each a fresh process (at least 3)")
	fs.StringVar(&o.jsonPath, "json", "", "suite: write the report to this path")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this path, one JSON object per line (suite: single workload only)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "single run: write a CPU profile to this path")
	fs.StringVar(&o.memProfile, "memprofile", "", "single run: write an allocation profile to this path")
	compare := fs.Bool("compare", false, "compare two suite reports: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *compare:
		err = compareReports(stdout, fs.Args())
	case o.trace >= 0:
		err = singleRun(stdout, o)
	default:
		err = suite(stdout, stderr, o)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	repeats    int
	jsonPath   string
	traceOut   string
	cpuProfile string
	memProfile string
}

var errIncorrect = errors.New("bench: output checks failed")

// singleRun makes one run of one workload in this process. It prints every
// metric by name with its unit, then sim_digest, then — as the last line —
// the driver's result object.
func singleRun(stdout io.Writer, o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		return fmt.Errorf("bench: -seconds must be positive")
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	var out *outcome
	decl := endToEnd
	if o.trace == 0 {
		out, err = timedRun(w, o.seed, o.seconds)
	} else {
		decl = perLayer
		out, err = tracedRun(w, o.seed, o.seconds, o.traceOut)
	}
	if err != nil {
		return err
	}
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g: %d operations attempted, %d failed\n", w.name, o.seed, o.seconds, out.Attempted, out.Failed)
	printMetrics(stdout, decl, out.Metrics, out.unavailable)
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "%s%s\n", checkPrefix, p)
	}
	if len(out.unavailable) > 0 {
		fmt.Fprintf(stdout, "%s%s\n", unavailablePrefix, strings.Join(out.unavailable, " "))
	}
	fmt.Fprintf(stdout, "%s%s\n", digestPrefix, out.digest)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return errIncorrect
	}
	return nil
}

// printMetrics prints every declared metric by name with its unit; one the
// workload cannot observe reads "n/a", not the 0 the driver's line carries.
func printMetrics(stdout io.Writer, decl []metric, m map[string]value, unavailable []string) {
	for _, d := range decl {
		if slices.Contains(unavailable, d.Name) {
			fmt.Fprintf(stdout, "  %-34s %16s %s\n", d.Name, "n/a", d.Unit)
			continue
		}
		fmt.Fprintf(stdout, "  %-34s %16.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
}

// These prefixes start the lines a single run prints its sim_digest, its
// failed output checks and its unavailable metrics on; the suite reads them
// back from its children.
const (
	digestPrefix      = "sim_digest "
	checkPrefix       = "CHECK FAILED: "
	unavailablePrefix = "unavailable "
)
