// Command crashtest runs a power-fault campaign across devices and host
// configurations, auditing the paper's guarantees after every cut: no
// acknowledged commit may be lost and no torn page may survive recovery.
//
// Usage:
//
//	crashtest [-trials N] [-seed N]
//	crashtest -explore [-points N] [-updates N] [-seed N]
//
// The default mode cuts power at random instants. With -explore, the
// systematic mode runs instead: for each engine × device × configuration
// cell, a probe run records the device command schedule, crash points are
// derived from it (after every sampled ack, mid program, mid erase, mid
// flush drain, mid capacitor dump), and each point is replayed as its own
// deterministic trial. The schedule digest printed per cell is reproducible
// across runs with the same seed.
//
// Expected output: DuraSSD is safe in every configuration (including
// barriers off + double-write off, the fast one); the volatile-cache SSD-A
// is only safe in the slow barriers-on + double-write-on configuration.
// The volume scenarios extend the claim to arrays: striped and mirrored
// DuraSSD volumes stay safe in the fast configuration, while a mirror of
// volatile-cache drives is NOT safe — the power cut hits both copies at
// the same instant, so redundancy cannot stand in for a durable cache.
// The ReplicaLoss exploration rows extend it to replicated shard groups:
// quorum-acked writes over R=3 DuraSSD replicas survive cutting any single
// replica at every derived instant (plus a second cut mid catch-up), while
// the R=1 volatile control loses acked writes, reported under VolLost.
//
// Exit status. Failing trials are collected and reported together on stderr
// at the end, and any of them makes the process exit 1. In -explore mode a
// row fails when it contradicts what it was built to show
// (crashpoint.Problems): a durable row (DuraSSD engines, SSD-A with barriers
// on, MidBurst's DuraSSD shards, ReplicaLoss R=3) with an unsafe crash point
// — each such point is listed with its ordinal, kind, instant and the first
// pages or keys it lost — or a volatile control row that lost nothing, which
// means the audit stopped seeing what it exists to see. The random mode
// fails only when a trial cannot run or audit; its verdict column is the
// report.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"durassd/internal/crashpoint"
	"durassd/internal/faults"
	"durassd/internal/iotrace"
	"durassd/internal/stats"
)

func main() {
	log.SetFlags(0)
	trials := flag.Int("trials", 10, "power cuts per configuration (random mode)")
	seed := flag.Int64("seed", 1, "base seed")
	explore := flag.Bool("explore", false, "systematic crash-point exploration instead of random cuts")
	points := flag.Int("points", 12, "max crash points per configuration (-explore)")
	updates := flag.Int("updates", 160, "updates per workload (-explore)")
	flag.Parse()

	var failures []string
	if *explore {
		failures = exploreCampaign(*points, *updates, *seed)
	} else {
		failures = randomCampaign(*trials, *seed)
	}
	if len(failures) > 0 {
		log.Printf("%d failing trial(s):", len(failures))
		for _, f := range failures {
			log.Printf("  FAIL %s", f)
		}
		os.Exit(1)
	}
}

// randomCampaign is the classic mode: N random-instant cuts per
// configuration. Returns descriptions of failing trials.
func randomCampaign(trials int, seed int64) []string {
	var failures []string
	tbl := stats.NewTable("Power-fault campaign: acked-commit durability and page atomicity",
		"Config", "Trials", "Acked", "LostCommits", "TornPages", "Verdict")
	wa := stats.NewTable("Per-origin write amplification (summed over trials)",
		"Config", "Origin", "PagesWritten", "NANDSlots", "GCSlots", "WA")
	for _, sc := range []faults.Scenario{
		{Device: faults.DuraSSD, Barrier: false, DoubleWrite: false},
		{Device: faults.DuraSSD, Barrier: true, DoubleWrite: false},
		{Device: faults.DuraSSD, Barrier: true, DoubleWrite: true},
		{Device: faults.SSDA, Barrier: false, DoubleWrite: false},
		{Device: faults.SSDA, Barrier: false, DoubleWrite: true},
		{Device: faults.SSDA, Barrier: true, DoubleWrite: true},
		{Device: faults.DuraSSD, Layout: faults.Striped, Width: 4, Barrier: false, DoubleWrite: false},
		{Device: faults.DuraSSD, Layout: faults.Mirror, Width: 2, Barrier: false, DoubleWrite: false},
		{Device: faults.SSDA, Layout: faults.Mirror, Width: 2, Barrier: false, DoubleWrite: false},
	} {
		var acked, lost, torn int
		var origins [iotrace.NumOrigins]iotrace.OriginCounters
		for i := 0; i < trials; i++ {
			sc.Seed = seed + int64(i)
			v, err := faults.Run(sc)
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s trial %d: %v", sc.Name(), i, err))
				continue
			}
			if v.Err != nil {
				failures = append(failures, fmt.Sprintf("%s trial %d audit: %v", sc.Name(), i, v.Err))
				continue
			}
			acked += v.AckedCommits
			lost += v.LostCommits
			torn += v.TornPages
			for o := range v.Origins {
				origins[o].PagesWritten += v.Origins[o].PagesWritten
				origins[o].PagesRead += v.Origins[o].PagesRead
				origins[o].NANDSlots += v.Origins[o].NANDSlots
				origins[o].GCSlots += v.Origins[o].GCSlots
			}
		}
		verdict := "SAFE"
		if lost > 0 || torn > 0 {
			verdict = "UNSAFE"
		}
		tbl.AddRow(sc.Name(), trials, acked, lost, torn, verdict)
		for o := range origins {
			c := &origins[o]
			if c.PagesWritten == 0 && c.NANDSlots == 0 {
				continue
			}
			wa.AddRow(sc.Name(), iotrace.Origin(o).String(),
				c.PagesWritten, c.NANDSlots, c.GCSlots, c.WriteAmplification())
		}
	}
	tbl.AddComment("LostCommits: acknowledged transactions missing after recovery")
	tbl.AddComment("TornPages: pages failing checksum validation with no double-write copy")
	fmt.Println(tbl)
	fmt.Println(wa)
	return failures
}

// exploreCampaign runs the systematic crash-point matrix: both engines,
// both devices, fast and safe host configurations, and the serving
// campaigns. Returns what each row got wrong.
func exploreCampaign(points, updates int, seed int64) []string {
	var failures []string
	tbl := stats.NewTable("Systematic crash-point exploration (engine × device × config)",
		"Config", "Points", "AfterAck", "MidProg", "MidDump", "MidMigr", "MidCatch", "Lost", "Torn", "VolLost", "Unsafe", "Digest")
	for _, c := range crashpoint.Matrix(points, updates, seed) {
		res, err := crashpoint.Explore(c)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", c.Name(), err))
			continue
		}
		counts := res.KindCounts()
		tbl.AddRow(c.Name(), len(res.Points),
			counts[crashpoint.AfterAck], counts[crashpoint.MidProgram], counts[crashpoint.MidDump],
			counts[crashpoint.MidMigration], counts[crashpoint.MidCatchup],
			res.Lost, res.Torn, res.VolatileLost, res.Unsafe, res.Digest[:12])
		failures = append(failures, crashpoint.Problems(c, res)...)
	}
	tbl.AddComment("Each point is one deterministic replay with the cut pinned to that instant")
	tbl.AddComment("Digest: SHA-256 prefix of the canonical schedule (same seed => same digest)")
	tbl.AddComment("VolLost: expected losses on volatile-cache members (MidBurst shards, ReplicaLoss R=1 control)")
	tbl.AddComment("ReplicaLoss rows cut one replica per point (victim rotating), MidCatch adds a second cut mid catch-up")
	fmt.Println(tbl)
	return failures
}
