package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"durassd/internal/host"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage/storagetest"
)

// TestMain turns the test binary into the benchmark when it is re-executed
// as a child, so the tests go through the same child-process path as the
// suite.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkJSON mirrors the driver's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the tables the code
// reports from: same workloads, same metrics, same units, directions and
// bounds, same run length.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, code measures %d", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why outside the contract", w.name)
		}
	}
	for _, c := range []struct {
		what     string
		declared []metric
		code     []metric
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.code) {
			t.Fatalf("%s: %d metrics declared, code has %d", c.what, len(c.declared), len(c.code))
		}
		seen := map[string]bool{}
		for i, m := range c.code {
			if c.declared[i] != m {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, code has %+v", c.what, i, c.declared[i], m)
			}
			if !nameRE.MatchString(m.Name) || len(m.Name) > 64 || seen[m.Name] {
				t.Errorf("%s: bad or repeated name %q", c.what, m.Name)
			}
			seen[m.Name] = true
		}
	}
	// setup_s has the largest bound and none passes the driver's 25 %. The
	// driver's bounds cover a change of seed (see endToEnd); the issue's,
	// none wider than a tenth but setup_s, are what -compare applies.
	if m := endToEnd[0]; m.Name != "setup_s" {
		t.Fatalf("endToEnd[0] = %+v, want setup_s", m)
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v outside (0, 0.25] or above setup_s's", m.Name, m.Bound)
		}
		if b, ok := sameSeed[m.Name]; !ok || b <= 0 || b > m.Bound || (b > 0.10 && m.Name != "setup_s") {
			t.Errorf("%s: same-seed bound %v (declared %v) missing, wider than the driver's or wider than a tenth", m.Name, b, ok)
		}
	}
}

// TestEveryWorkloadSmall runs each workload at a hundredth of its size
// through the child-process path, timed and traced, and checks that the
// result carries exactly the declared metric names, passes its output
// checks, gives one sim_digest on both passes, and observes the per-layer
// metrics of the layers it exists to exercise.
func TestEveryWorkloadSmall(t *testing.T) {
	t.Parallel()
	o := options{seed: 1, seconds: runSeconds / 100.0}
	observes := map[string][]string{
		"fio-randwrite":    {"sim_write_p99_us", "sim_nand_bytes_per_user_byte", "ftl.write_amp", "nand.busy_us", "trace.overhead_ratio"},
		"linkbench-innodb": {"sim_read_p99_us", "sim_write_p99_us", "innodb.wal_flushes", "host.above_device_us"},
		"serve-mixed":      {"serve.shed", "serve.retried", "serve.tpcc.write_p99_us"},
		"shards":           {"cluster.par_speedup", "couch.fsyncs", "devfront.flush_drain_us"},
		"crash-matrix":     {"crash.points.mid-dump", "crash.vol_lost", "core.dump_pages"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			var stderr bytes.Buffer
			timed, err := child(&stderr, w.name, o, 0)
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr.String())
			}
			traced, err := child(&stderr, w.name, o, 1)
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr.String())
			}
			for _, c := range []struct {
				out  *outcome
				decl []metric
			}{{timed, endToEnd}, {traced, perLayer}} {
				if !c.out.Correct || c.out.Failed != 0 || c.out.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d problems=%q", c.out.Correct, c.out.Attempted, c.out.Failed, c.out.problems)
				}
				if len(c.out.Metrics) != len(c.decl) {
					t.Errorf("%d metrics reported, %d declared", len(c.out.Metrics), len(c.decl))
				}
				for _, d := range c.decl {
					if v, ok := c.out.Metrics[d.Name]; !ok || v.Unit != d.Unit {
						t.Errorf("metric %s: reported %+v (present=%v), declared unit %q", d.Name, v, ok, d.Unit)
					}
				}
			}
			for _, d := range endToEnd {
				if timed.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, timed.Metrics[d.Name].Value)
				}
			}
			if timed.digest != traced.digest {
				t.Errorf("traced sim_digest %s != timed %s", traced.digest, timed.digest)
			}
			if len(timed.unavailable) > 0 {
				t.Errorf("end-to-end metrics unavailable: %q", timed.unavailable)
			}
			for _, name := range append(observes[w.name], "fail_share", "sim.events", "rt.cpu_s") {
				if slices.Contains(traced.unavailable, name) {
					t.Errorf("per-layer metric %s is not observed", name)
				}
			}
		})
	}
}

// TestTracedDeviceIsTransparent checks the decorator from both sides: it
// passes the storage.Device conformance suite (power cycling and media
// faults included, so PowerCycler and MediaFaulter are forwarded), and a
// decorated rig — preload included — replays the undecorated sim_digest.
func TestTracedDeviceIsTransparent(t *testing.T) {
	t.Parallel()
	var _ host.Preloader = (*tracedDevice)(nil)
	storagetest.Run(t, func(t *testing.T) storagetest.Harness {
		eng := sim.New()
		d, err := ssd.New(eng, ssd.DuraSSD(16))
		if err != nil {
			t.Fatal(err)
		}
		td := &tracedDevice{Device: d}
		td.enable()
		return storagetest.Harness{Eng: eng, Dev: td}
	})
	for _, name := range []string{"fio-randwrite", "linkbench-innodb", "shards"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		e := env{seed: 7, n: sizeOf(w, runSeconds/100.0), workers: 2}
		plain, err := measure(w, e)
		if err != nil {
			t.Fatal(err)
		}
		e.traced = true
		traced, err := measure(w, e)
		if err != nil {
			t.Fatal(err)
		}
		if plain.digest() != traced.digest() {
			t.Errorf("%s: decorated sim_digest %s != undecorated %s", name, traced.digest(), plain.digest())
		}
		spans := 0
		for _, d := range traced.tdevs {
			spans += len(d.spans)
			for i, s := range d.spans {
				if s.End < s.Start || s.Excl < 0 || s.Parent >= int32(i) {
					t.Fatalf("%s: malformed span %d: %+v", name, i, s)
				}
			}
		}
		if spans == 0 {
			t.Errorf("%s: traced round recorded no spans", name)
		}
	}
}

// TestCompareVerdicts feeds -compare synthetic reports.
func TestCompareVerdicts(t *testing.T) {
	allocs, rate := endToEnd[2], endToEnd[1]
	if allocs.Name != "host_allocs_per_op" || rate.Name != "host_ops_per_s" {
		t.Fatal("endToEnd order changed; update the test")
	}
	// Tighter than the 1 % allocation bound, so the medians decide.
	base := []float64{100, 100.1, 99.9, 100.05, 99.95}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		m    metric
		b    []float64
		want string
	}{
		{"20% more allocations", allocs, scaled(1.20), "worse"},
		{"20% fewer allocations", allocs, scaled(0.80), "ok"},
		{"within the bound", allocs, scaled(1.0 + allocs.Bound/2), "ok"},
		{"30% slower", rate, scaled(0.70), "worse"},
		{"30% faster", rate, scaled(1.30), "ok"},
		{"noisier than the bound", allocs, []float64{90, 110, 100, 120, 80}, "unresolved"},
		{"noisy but every run better", allocs, []float64{50, 60, 70, 55, 65}, "ok"},
	} {
		if got := verdict(c.m, base, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	// End to end through the files: a 20 % allocation regression on one
	// workload must fail the comparison and name the metric.
	mk := func(f float64) *report {
		r := &report{Schema: 1, Tool: "bench", Seed: 1, Seconds: runSeconds, Repeats: 5, NumCPU: 2}
		wr := &workloadReport{Name: "fio-randwrite", Correct: true, Attempted: 1000, SimDigest: "d", EndToEnd: map[string]summary{}}
		for _, d := range endToEnd {
			v := base
			if d.Name == allocs.Name {
				v = scaled(f)
			}
			wr.EndToEnd[d.Name] = summarize(d.Unit, v)
		}
		wr.PerLayer = map[string]value{"sim_write_p99_us": {Value: 900, Unit: "us"}, "fail_share": {Value: 0.0001, Unit: "ratio"}}
		r.Workloads = []*workloadReport{wr}
		return r
	}
	dir := t.TempDir()
	write := func(name string, r *report) string {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", mk(1)), write("same.json", mk(1)), write("slow.json", mk(1.20))
	var out bytes.Buffer
	if err := compareReports(&out, []string{a, same}); err != nil {
		t.Errorf("identical reports: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareReports(&out, []string{a, slow}); err == nil {
		t.Errorf("20%% regression passed the comparison:\n%s", out.String())
	}
	if !regexp.MustCompile(`host_allocs_per_op .* worse`).MatchString(out.String()) {
		t.Errorf("comparison does not flag host_allocs_per_op as worse:\n%s", out.String())
	}
	// The simulated metrics are exact for a seed: 2 % on a percentile is
	// worse, and so are two more failures in a thousand operations.
	for name, v := range map[string]float64{"sim_write_p99_us": 918, "fail_share": 0.0021} {
		r := mk(1)
		r.Workloads[0].PerLayer[name] = value{Value: v}
		out.Reset()
		if err := compareReports(&out, []string{a, write(name+".json", r)}); err == nil || !regexp.MustCompile(name+` .* worse`).MatchString(out.String()) {
			t.Errorf("%s = %v passed the comparison (%v):\n%s", name, v, err, out.String())
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := (8.25 - 2.75) / 5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
