// Command servebench drives the mixed-tenant serving scenario — YCSB-A,
// LinkBench, and TPC-C tenants sharing one sharded serving box over DuraSSD
// shards — and reports per-tenant throughput, tail latency, shed and
// throttle counts. It emits the shared -json result schema.
//
// Usage:
//
//	go run ./cmd/servebench                       # default 4-shard mix, print the table
//	go run ./cmd/servebench -shards 8 -workers 4  # scale the box
//	go run ./cmd/servebench -json report.json     # also write the JSON report
//	go run ./cmd/servebench -json - | jq .        # report on stdout, table on stderr
//	go run ./cmd/servebench -verify               # re-run at 1 vs N workers, require identical digests
//	go run ./cmd/servebench -chaos                # replicated R=3 groups under the seeded fault schedule
//
// With -chaos the box becomes two R=3 W=2 replica groups and the canonical
// fault schedule is injected: a replica brownout (hedged reads), a replica
// power failure with a mid-traffic reboot and delta catch-up (breaker,
// quorum degradation), and an overload burst (shedding, client retries).
// The report gains the robustness counter line; -shards is ignored.
//
// The run is deterministic: the same seed produces a byte-identical report
// and iotrace digest at any worker count, which -verify checks end to end —
// fault injection included.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"durassd/internal/repro"
	"durassd/internal/serve"
)

func main() {
	log.SetFlags(0)
	shards := flag.Int("shards", 4, "engine shards (one store per sim domain)")
	workers := flag.Int("workers", 1, "cluster worker threads")
	seed := flag.Int64("seed", 1, "scenario seed")
	jsonPath := flag.String("json", "", "write results as a JSON report to this path (\"-\" = stdout)")
	verify := flag.Bool("verify", false, "run at 1 worker and again at -workers; fail unless reports and digests are byte-identical")
	chaos := flag.Bool("chaos", false, "replicated R=3 W=2 groups under the seeded brownout/crash/overload schedule (-shards ignored)")
	flag.Parse()

	cfg := serve.ScenarioConfig{Shards: *shards, Workers: *workers, Seed: *seed}
	if *chaos {
		cfg = serve.ChaosScenario(*workers, *seed)
	}
	out := os.Stdout
	if *jsonPath == "-" {
		out = os.Stderr
	}
	res, err := serve.RunScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(out, res.Render())

	if *verify {
		vcfg := cfg
		vcfg.Workers = 1
		base, err := serve.RunScenario(vcfg)
		if err != nil {
			log.Fatal(err)
		}
		if base.Digest != res.Digest {
			log.Fatalf("digest mismatch: workers=1 %s vs workers=%d %s",
				base.Digest, *workers, res.Digest)
		}
		if base.Render() != res.Render() {
			log.Fatalf("report mismatch between workers=1 and workers=%d", *workers)
		}
		fmt.Fprintf(out, "verify: workers=1 and workers=%d byte-identical (digest %s)\n",
			*workers, res.Digest[:16])
	}

	if *jsonPath != "" {
		rep := repro.NewJSONReport("servebench")
		rep.SetConfig("shards", cfg.Shards)
		rep.SetConfig("workers", *workers)
		rep.SetConfig("seed", *seed)
		if *chaos {
			rep.SetConfig("chaos", true)
			rep.SetConfig("replicas", cfg.Replicas)
		}
		addToJSON(rep, res)
		if err := rep.WriteFile(*jsonPath); err != nil {
			log.Fatal(err)
		}
	}
}

// addToJSON folds the result into the shared -json report schema: the
// rendered table plus flat metrics — per-tenant p99s, shed and throttle
// counts keyed for trajectory tooling.
func addToJSON(rep *repro.JSONReport, r *serve.ScenarioResult) {
	rep.AddTable(r.Table())
	for _, t := range r.Tenants {
		prefix := "tenant/" + t.Name
		rep.AddMetric(prefix+"/ops", float64(t.Ops))
		rep.AddMetric(prefix+"/shed", float64(t.Shed))
		rep.AddMetric(prefix+"/throttled", float64(t.Throttled))
		rep.AddMetric(prefix+"/cache_hits", float64(t.CacheHits))
		rep.AddMetric(prefix+"/bloom_skips", float64(t.BloomSkips))
		rep.AddMetric(prefix+"/read_p99_us", float64(t.ReadP99)/float64(time.Microsecond))
		rep.AddMetric(prefix+"/write_p99_us", float64(t.WriteP99)/float64(time.Microsecond))
	}
	for i, n := range r.ShedByShard {
		rep.AddMetric(fmt.Sprintf("shard/%d/shed", i), float64(n))
	}
	rb := r.Robust
	rep.AddMetric("robust/hedges", float64(rb.Hedges))
	rep.AddMetric("robust/deadlines", float64(rb.Deadlines))
	rep.AddMetric("robust/retries", float64(rb.Retries))
	rep.AddMetric("robust/breaker_opens", float64(rb.BreakerOpens))
	rep.AddMetric("robust/unavailable", float64(rb.Unavailable))
	rep.AddMetric("robust/catchup_keys", float64(rb.CatchupKeys))
	rep.AddMetric("robust/stale_reads", float64(rb.StaleReads))
	rep.AddMetric("cache/hit_ratio", r.CacheRatio)
	rep.AddMetric("cluster/events", float64(r.Events))
	rep.AddMetric("cluster/virtual_ms", float64(r.Elapsed)/float64(time.Millisecond))
}
