// Command crashtest runs a power-fault campaign across devices and host
// configurations, auditing the paper's guarantees after every cut: no
// acknowledged commit may be lost and no torn page may survive recovery.
//
// Usage:
//
//	crashtest [-points N] [-updates N] [-seed N]
//
// For each engine × device × configuration cell, a probe run records the
// device command schedule, crash points are derived from it (after every
// sampled ack, mid program, mid erase, mid flush drain, mid capacitor dump),
// and each point is replayed as its own deterministic trial. The schedule
// digest printed per cell is reproducible across runs with the same seed.
//
// Expected output: DuraSSD is safe in every configuration (including
// barriers off + double-write off, the fast one); the volatile-cache SSD-A
// is only safe in the slow barriers-on + double-write-on configuration.
// The volume rows are not in this matrix: striped and mirrored DuraSSD
// volumes staying safe in the fast configuration, and a mirror of
// volatile-cache drives that is NOT safe (the power cut hits both copies at
// the same instant), run under `go test -run TestRandomCutVerdicts
// ./internal/faults`.
// The ReplicaLoss exploration rows extend it to replicated shard groups:
// quorum-acked writes over R=3 DuraSSD replicas survive cutting any single
// replica at every derived instant (plus a second cut mid catch-up), while
// the R=1 volatile control loses acked writes, reported under VolLost.
//
// Exit status. Failing trials are collected and reported together on stderr
// at the end, and any of them makes the process exit 1. A row fails when it
// contradicts what it was built to show (crashpoint.Problems): a durable row
// (DuraSSD engines, SSD-A with barriers on, MidBurst's DuraSSD shards,
// ReplicaLoss R=3) with an unsafe crash point — each such point is listed
// with its ordinal, kind, instant and the first pages or keys it lost — or a
// volatile control row that lost nothing, which means the audit stopped
// seeing what it exists to see.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"durassd/internal/crashpoint"
	"durassd/internal/stats"
)

func main() {
	log.SetFlags(0)
	seed := flag.Int64("seed", 1, "base seed")
	points := flag.Int("points", 12, "max crash points per configuration")
	updates := flag.Int("updates", 160, "updates per workload")
	flag.Parse()

	failures := exploreCampaign(*points, *updates, *seed)
	if len(failures) > 0 {
		log.Printf("%d failing trial(s):", len(failures))
		for _, f := range failures {
			log.Printf("  FAIL %s", f)
		}
		os.Exit(1)
	}
}

// exploreCampaign runs the systematic crash-point matrix: both engines,
// both devices, fast and safe host configurations, and the serving
// campaigns. Returns what each row got wrong.
func exploreCampaign(points, updates int, seed int64) []string {
	var failures []string
	// One column per crash-point kind, so the kind columns sum to Points.
	header := []string{"Config", "Points"}
	for k := range (&crashpoint.Result{}).KindCounts() {
		header = append(header, crashpoint.Kind(k).String())
	}
	header = append(header, "Lost", "Torn", "VolLost", "Unsafe", "Digest")
	tbl := stats.NewTable("Systematic crash-point exploration (engine × device × config)", header...)
	for _, c := range crashpoint.Matrix(points, updates, seed) {
		res, err := crashpoint.Explore(c)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", c.Name(), err))
			continue
		}
		row := []any{c.Name(), len(res.Points)}
		for _, n := range res.KindCounts() {
			row = append(row, n)
		}
		row = append(row, res.Lost, res.Torn, res.VolatileLost, res.Unsafe, res.Digest[:12])
		tbl.AddRow(row...)
		failures = append(failures, crashpoint.Problems(c, res)...)
	}
	tbl.AddComment("Each point is one deterministic replay with the cut pinned to that instant")
	tbl.AddComment("Digest: SHA-256 prefix of the canonical schedule (same seed => same digest)")
	tbl.AddComment("VolLost: expected losses on volatile-cache members (MidBurst shards, ReplicaLoss R=1 control)")
	tbl.AddComment("ReplicaLoss rows cut one replica per point (victim rotating), mid-catchup adds a second cut mid catch-up")
	fmt.Println(tbl)
	return failures
}
