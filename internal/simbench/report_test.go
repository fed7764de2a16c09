package simbench

import (
	"runtime"
	"testing"
	"time"

	"durassd/internal/sim"
)

// TestReportClusterStats: the scenario report records the CPU count it ran
// on and carries a cluster scenario's merge counters — and only a cluster
// scenario's — next to its timing metrics.
func TestReportClusterStats(t *testing.T) {
	rep := Report([]Result{
		{Name: "solo", Events: 10, Wall: time.Millisecond},
		{Name: "clu", Events: 100, Wall: time.Millisecond,
			Cluster: sim.ClusterStats{Epochs: 4, BarrierEpochs: 3, Messages: 2, Parks: 1}},
	}, 1)
	if rep.Config["num_cpu"] != runtime.NumCPU() {
		t.Errorf("num_cpu = %v, want %d", rep.Config["num_cpu"], runtime.NumCPU())
	}
	for key, want := range map[string]float64{"clu/epochs": 4, "clu/barrier_epochs": 3, "clu/messages": 2, "clu/parks": 1} {
		if got, ok := rep.Metrics[key]; !ok || got != want {
			t.Errorf("%s = %v (present %t), want %v", key, got, ok, want)
		}
	}
	if _, ok := rep.Metrics["solo/epochs"]; ok {
		t.Error("single-engine scenario reports cluster counters")
	}
}

// TestSingleCoreAnnotation: reports produced on a one-CPU host must carry
// "single_core": true, and hosts with real parallelism must not be tagged —
// the 1-CPU caveat, mechanized.
func TestSingleCoreAnnotation(t *testing.T) {
	rows := []ShardSweepRow{
		{Workers: 1, Result: Result{Name: "shards-w1", Events: 1000, Wall: time.Millisecond}},
		{Workers: 4, Result: Result{Name: "shards-w4", Events: 1000, Wall: time.Millisecond}},
	}
	rep := SweepReport(rows, 3)
	want := runtime.NumCPU() == 1
	got, present := rep.Config["single_core"]
	if present != want {
		t.Errorf("single_core present=%t on a %d-CPU host, want %t", present, runtime.NumCPU(), want)
	}
	if present && got != true {
		t.Errorf("single_core = %v, want true", got)
	}
	if rep.Config["num_cpu"] != runtime.NumCPU() {
		t.Errorf("num_cpu = %v, want %d", rep.Config["num_cpu"], runtime.NumCPU())
	}
	if _, ok := rep.Metrics["shards-w4/ns_per_event"]; !ok {
		t.Error("sweep metrics missing from the report")
	}

	// Both branches of the detector, independent of the host we run on.
	single := Report(nil, 1)
	annotateSingleCore(single, 1)
	if single.Config["single_core"] != true {
		t.Error("numCPU=1 report not annotated")
	}
	multi := Report(nil, 1)
	delete(multi.Config, "single_core")
	annotateSingleCore(multi, 8)
	if _, ok := multi.Config["single_core"]; ok {
		t.Error("numCPU=8 report wrongly annotated")
	}
}

// TestServeMixedScenarioRegistered: the serving-layer scenario is part of
// the suite and runs clean with a stable nonzero event count.
func TestServeMixedScenarioRegistered(t *testing.T) {
	s, err := Find("serve-mixed")
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	if a == 0 || a != b {
		t.Fatalf("serve-mixed event count unstable: %d vs %d", a, b)
	}
}

// TestServeChaosScenarioRegistered: the replicated chaos scenario is part
// of the suite and runs clean with a stable nonzero event count — fault
// injection included, the schedule is fully seeded.
func TestServeChaosScenarioRegistered(t *testing.T) {
	s, err := Find("serve-chaos")
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	if a == 0 || a != b {
		t.Fatalf("serve-chaos event count unstable: %d vs %d", a, b)
	}
}
