package repro

import (
	"strings"
	"testing"

	"durassd/internal/storage"
)

// These are fast smoke versions of the paper's experiments; the full-size
// shape assertions live in the repository-root benchmark suite.

// mustRun runs the named experiment at cfg's sizes.
func mustRun(t testing.TB, name string, cfg Config) *Result {
	t.Helper()
	e, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestLookupRejectsUnknownAndEmptyNames(t *testing.T) {
	for _, name := range []string{"fig7", ""} {
		_, err := Lookup(name)
		if err == nil {
			t.Fatalf("Lookup(%q) succeeded", name)
		}
		for _, e := range Experiments {
			if !strings.Contains(err.Error(), e.Name) {
				t.Errorf("Lookup(%q) error %q does not list %s", name, err, e.Name)
			}
		}
	}
	if len(Experiments) != 12 {
		t.Errorf("%d experiments, want the paper's twelve", len(Experiments))
	}
	for _, e := range Experiments {
		if got, err := Lookup(e.Name); err != nil || got.Name != e.Name {
			t.Errorf("Lookup(%q) = %q, %v", e.Name, got.Name, err)
		}
	}
}

func TestTable1SmokeShapes(t *testing.T) {
	m := mustRun(t, "table1", Config{Scale: 32, Ops: 400, Seed: 1}).Metrics
	dura0, dura1 := m["table1/DuraSSD/ON/fsync=0"], m["table1/DuraSSD/ON/fsync=1"]
	// fsync frequency dominates cache-on SSD throughput.
	if dura0 < 10*dura1 {
		t.Fatalf("DuraSSD ON: no-fsync %v not >> fsync-1 %v", dura0, dura1)
	}
	// NoBarrier is nearly flat and high.
	if nb1 := m["table1/DuraSSD/ON(NoBarrier)/fsync=1"]; nb1 < 3*dura1 {
		t.Fatalf("NoBarrier fsync-1 %v not much faster than barrier fsync-1 %v", nb1, dura1)
	}
	// Disk gains little from batching compared with SSDs.
	if gain := m["table1/HDD/OFF/fsync=0"] / m["table1/HDD/OFF/fsync=1"]; gain > 10 {
		t.Fatalf("HDD OFF no-fsync/fsync-1 gain %v too large", gain)
	}
	// SSDs beat the disk outright with caches on and rare fsyncs.
	if hdd0 := m["table1/HDD/ON/fsync=0"]; dura0 < 5*hdd0 {
		t.Fatalf("DuraSSD %v not >> HDD %v", dura0, hdd0)
	}
}

func TestTable2SmokeShapes(t *testing.T) {
	m := mustRun(t, "table2", Config{Scale: 32, Ops: 1500, Seed: 1}).Metrics
	ratio := func(row string) float64 {
		return m["table2/"+row+"/page=4096"] / m["table2/"+row+"/page=16384"]
	}
	m4, m16 := m["table2/Read-only (128 threads)/page=4096"], m["table2/Read-only (128 threads)/page=16384"]
	if m4 < 2*m16 {
		t.Fatalf("read-only 4KB %v not >> 16KB %v", m4, m16)
	}
	if r := ratio("Write-only (1-fsync)"); r < 0.7 || r > 2.0 {
		t.Fatalf("write 1-fsync page-size ratio %v; should be nearly flat", r)
	}
	if r := ratio("HDD Read-only (128 threads)"); r < 0.9 || r > 1.3 {
		t.Fatalf("HDD read page-size ratio %v; disk should be insensitive", r)
	}
}

func TestLinkBenchSmoke(t *testing.T) {
	res, err := runLinkBench(lbCell{Config: Config{Scale: 1024, Ops: 6_000, Seed: 1}, pageBytes: 4 * storage.KB})
	if err != nil {
		t.Fatal(err)
	}
	if res.TPS() <= 0 || res.Requests < 5_000 {
		t.Fatalf("TPS=%v requests=%d", res.TPS(), res.Requests)
	}
}

func TestTPCCSmoke(t *testing.T) {
	res, err := runTPCC(tpccCell{Config: Config{Scale: 256, Ops: 3_000, Seed: 1}, pageBytes: 4 * storage.KB})
	if err != nil {
		t.Fatal(err)
	}
	if res.TpmC() <= 0 {
		t.Fatal("zero tpmC")
	}
}

func TestYCSBSmoke(t *testing.T) {
	cell := ycsbCell{Config: Config{Ops: 1_000, Seed: 1}, barrier: true, batchSize: 1, updatePct: 100}
	on, err := runYCSB(cell)
	if err != nil {
		t.Fatal(err)
	}
	cell.barrier = false
	off, err := runYCSB(cell)
	if err != nil {
		t.Fatal(err)
	}
	if off.OPS() < 2*on.OPS() {
		t.Fatalf("barrier off (%v OPS) not much faster than on (%v OPS)", off.OPS(), on.OPS())
	}
}

func TestEnduranceReduction(t *testing.T) {
	m := mustRun(t, "endurance", Config{Scale: 512, Ops: 20_000, Seed: 1}).Metrics
	if r := m["endurance/reduction"]; r < 0.5 {
		t.Fatalf("flash write reduction = %.0f%%, paper claims >50%%", r*100)
	}
}

func TestTailLatencyCollapsesWithoutBarriers(t *testing.T) {
	m := mustRun(t, "tail", Config{Scale: 32, Ops: 8_000, Seed: 1}).Metrics
	on, off := m["tail/barrier=On/read-p99-ms"], m["tail/barrier=Off/read-p99-ms"]
	if on < 2*off {
		t.Fatalf("read P99 with barriers (%vms) not clearly above without (%vms)", on, off)
	}
}
