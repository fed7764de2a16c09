package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// report is the suite's JSON output and -compare's input.
type report struct {
	Schema     int               `json:"schema"`
	Tool       string            `json:"tool"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Repeats    int               `json:"repeats"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Workloads  []*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	SimDigest string             `json:"sim_digest"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]value   `json:"per_layer"` // the metrics the workload can observe
	// Unavailable names the declared per-layer metrics this workload cannot
	// observe from outside the packages it drives.
	Unavailable []string `json:"unavailable,omitempty"`
	Problems    []string `json:"problems,omitempty"`
}

// summary is one end-to-end metric over the repeats of a workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, v []float64) summary {
	return summary{Unit: unit, Median: median(v), Min: slices.Min(v), Max: slices.Max(v), N: len(v), Values: v}
}

// suite runs every selected workload: `repeats` timed runs, each a fresh
// child process and one at a time, then one traced run; it checks the
// outputs, prints every metric by name with its unit, and writes the
// report.
func suite(stdout, stderr io.Writer, o options) error {
	if o.repeats < 3 {
		return fmt.Errorf("bench: -repeats must be at least 3 (a median of fewer says nothing about spread)")
	}
	if o.cpuProfile != "" || o.memProfile != "" {
		return fmt.Errorf("bench: -cpuprofile and -memprofile profile one run: add -workload <name> -trace 0 (or 1)")
	}
	selected := workloads
	if o.workload != "" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		selected = []workload{*w}
	} else if o.traceOut != "" {
		return fmt.Errorf("bench: -trace-out holds one workload's spans: add -workload <name>")
	}
	rep := &report{
		Schema: 1, Tool: "bench", Seed: o.seed, Seconds: o.seconds, Repeats: o.repeats,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	fmt.Fprintf(stdout, "bench: seed %d, %g s per run, %d repeats, %d CPUs, GOMAXPROCS %d, %s\n",
		rep.Seed, rep.Seconds, rep.Repeats, rep.NumCPU, rep.GOMAXPROCS, rep.GoVersion)
	failed := false
	for i := range selected {
		wr, err := suiteWorkload(stdout, stderr, &selected[i], o)
		if err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, wr)
		failed = failed || !wr.Correct
	}
	if o.jsonPath != "" {
		if err := writeReport(o.jsonPath, rep); err != nil {
			return err
		}
	}
	if failed {
		return errIncorrect
	}
	return nil
}

// writeReport writes rep as JSON with one workload a line: short enough to
// attach to a change, and a changed workload is one changed line.
func writeReport(path string, rep *report) error {
	all := rep.Workloads
	rep.Workloads = nil
	head, err := json.Marshal(rep)
	rep.Workloads = all
	if err != nil {
		return err
	}
	var b bytes.Buffer
	b.Write(bytes.TrimSuffix(head, []byte("null}"))) // "workloads" is the last field
	b.WriteString("[\n")
	for i, w := range all {
		line, err := json.Marshal(w)
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(all)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func suiteWorkload(stdout, stderr io.Writer, w *workload, o options) (*workloadReport, error) {
	fmt.Fprintf(stdout, "\n%s — %s\n", w.name, w.why)
	wr := &workloadReport{Name: w.name, Why: w.why, EndToEnd: map[string]summary{}}
	cols := map[string][]float64{}
	for i := 0; i < o.repeats; i++ {
		out, err := child(stderr, w.name, o, 0)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			wr.Attempted, wr.Failed, wr.SimDigest = out.Attempted, out.Failed, out.digest
		} else if out.digest != wr.SimDigest {
			wr.Problems = append(wr.Problems, fmt.Sprintf("repeat %d sim_digest %s differs from repeat 0's %s", i, out.digest, wr.SimDigest))
		}
		wr.Problems = append(wr.Problems, out.problems...)
		for _, d := range endToEnd {
			cols[d.Name] = append(cols[d.Name], out.Metrics[d.Name].Value)
		}
	}
	traced, err := child(stderr, w.name, o, 1)
	if err != nil {
		return nil, err
	}
	if traced.digest != wr.SimDigest {
		wr.Problems = append(wr.Problems, fmt.Sprintf("traced pass sim_digest %s differs from the timed runs' %s", traced.digest, wr.SimDigest))
	}
	wr.Problems = append(wr.Problems, traced.problems...)
	wr.PerLayer, wr.Unavailable = traced.Metrics, traced.unavailable
	for _, name := range wr.Unavailable {
		delete(wr.PerLayer, name)
	}
	wr.Correct = len(wr.Problems) == 0

	fmt.Fprintf(stdout, "  %d operations attempted, %d failed; sim_digest %s\n", wr.Attempted, wr.Failed, wr.SimDigest)
	for _, d := range endToEnd {
		s := summarize(d.Unit, cols[d.Name])
		wr.EndToEnd[d.Name] = s
		fmt.Fprintf(stdout, "  %-34s %16.6g %-10s (min %.6g, max %.6g, n=%d)\n", d.Name, s.Median, d.Unit, s.Min, s.Max, s.N)
	}
	printMetrics(stdout, perLayer, wr.PerLayer, wr.Unavailable)
	for _, p := range wr.Problems {
		fmt.Fprintf(stdout, "  CHECK FAILED: %s\n", p)
	}
	return wr, nil
}

// childEnv marks a re-execution of this binary as a benchmark child; the
// test binary's TestMain looks for it to become the benchmark.
const childEnv = "DURASSD_BENCH_CHILD"

// child makes one run of workload name in a fresh process — this binary,
// re-executed — and reads its result back. A child that ran but failed its
// output checks is a result (Correct false, problems filled), not an error.
func child(stderr io.Writer, name string, o options, trace int) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
	if trace == 1 && o.traceOut != "" {
		args = append(args, "-trace-out", o.traceOut)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	runErr := cmd.Run()
	var exit *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exit) {
		return nil, fmt.Errorf("bench: running %s: %w", name, runErr)
	}
	out, err := parseChild(stdout.String())
	if err != nil {
		return nil, fmt.Errorf("bench: %s -trace %d: %w (exit: %v)", name, trace, err, runErr)
	}
	return out, nil
}

// parseChild reads a single run's standard output: the driver's result
// object on the last line, sim_digest and any failed checks before it.
func parseChild(stdout string) (*outcome, error) {
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	out := &outcome{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), out); err != nil {
		return nil, fmt.Errorf("last line is not a result object: %w", err)
	}
	for _, l := range lines[:len(lines)-1] {
		if d, ok := strings.CutPrefix(l, digestPrefix); ok {
			out.digest = d
		}
		if p, ok := strings.CutPrefix(l, checkPrefix); ok {
			out.problems = append(out.problems, p)
		}
		if u, ok := strings.CutPrefix(l, unavailablePrefix); ok {
			out.unavailable = strings.Fields(u)
		}
	}
	if out.digest == "" {
		return nil, fmt.Errorf("no %sline", digestPrefix)
	}
	if !out.Correct && len(out.problems) == 0 {
		out.problems = []string{"run reported correct=false"}
	}
	return out, nil
}
