package crashpoint

import (
	"errors"
	"strings"
	"testing"

	"durassd/internal/faults"
)

// TestExploreBurstCampaign: systematic crash-point exploration over the
// serving-layer mid-burst scenario. Every derived point replays the burst
// with the cut pinned to that instant; the DuraSSD shards must be safe at
// every point, while the volatile-cache shards show the expected loss at
// least somewhere — the same asymmetry the engine-level campaigns establish,
// now demonstrated through gateway acks.
func TestExploreBurstCampaign(t *testing.T) {
	c := Campaign{
		Burst:     &BurstSpec{Shards: 4, Volatile: []int{1, 3}, Updates: 80, Seed: 5},
		MaxPoints: 4,
	}
	res, err := Explore(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Name, "midburst") {
		t.Errorf("result name %q does not identify the burst campaign", res.Name)
	}
	if len(res.Points) == 0 {
		t.Fatal("no crash points derived from the probe schedule")
	}
	if res.Unsafe != 0 || res.Lost != 0 || res.Torn != 0 {
		t.Errorf("DuraSSD shards unsafe at %d points (lost=%d torn=%d)", res.Unsafe, res.Lost, res.Torn)
	}
	if res.VolatileLost == 0 {
		t.Error("no point lost anything on the volatile shards: the exploration never caught a shard mid-burst")
	}
	sawAck := false
	for _, o := range res.Outcomes {
		if o.Serve == nil {
			t.Fatalf("burst campaign outcome at %v carries no serving verdict", o.Point.At)
		}
		if o.Serve.AckedCommits > 0 {
			sawAck = true
		}
		// The point's verdict folds in the serving verdict's error, group
		// and device losses and torn pages.
		if !o.Verdict.Safe() {
			t.Errorf("point %s@%v: DuraSSD verdict unsafe: %+v", o.Point.Kind, o.Point.At, o.Serve)
		}
	}
	if !sawAck {
		t.Error("no explored point had acknowledged commits: every cut landed before the burst started")
	}
	// Reproducibility: the digest is a pure function of the spec and seed.
	res2, err := Explore(c)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Digest != res.Digest {
		t.Errorf("burst exploration digest diverged: %s vs %s", res.Digest, res2.Digest)
	}
}

// The ReplicaLoss campaign proves the replication claim at every derived
// adversarial instant: cutting any single replica of an R=3 W=2 DuraSSD
// group right after a quorum ack, mid program, mid flush drain, or mid
// erase — and cutting a second replica mid catch-up — never loses a
// quorum-acked write.
func TestExploreReplicaQuorumSafeAtEveryPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("replica-loss exploration replays many full runs")
	}
	res, err := Explore(Campaign{
		Replica: &ReplicaSpec{
			Groups: 2, Replicas: 3,
			Updates: 60, Seed: 11,
		},
		MaxPoints: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no crash points derived")
	}
	if res.Unsafe != 0 || res.Lost != 0 || res.Torn != 0 {
		t.Errorf("unsafe=%d lost=%d torn=%d; quorum-acked writes must survive every point",
			res.Unsafe, res.Lost, res.Torn)
	}
	counts := res.KindCounts()
	if counts[AfterAck] == 0 {
		t.Errorf("no after-ack points in %v", res.Points)
	}
	if counts[MidCatchup] != 1 {
		t.Errorf("mid-catchup points = %d, want exactly 1", counts[MidCatchup])
	}
	// The victim index must rotate so every replica position gets cut.
	seen := map[int]bool{}
	for i := range res.Points {
		seen[i%3] = true
	}
	if len(res.Points) >= 3 && (!seen[0] || !seen[1] || !seen[2]) {
		t.Errorf("victim rotation did not cover all replica positions over %d points", len(res.Points))
	}
	for _, o := range res.Outcomes {
		if o.Serve == nil {
			t.Fatalf("outcome %v missing the serving verdict", o.Point)
		}
		if o.Serve.AckedCommits == 0 {
			t.Errorf("point %s@%v acked nothing — nothing audited", o.Point.Kind, o.Point.At)
		}
	}
}

// The R=1 volatile control must demonstrate loss: with no quorum and no
// durable cache, at least one derived point loses acked writes — and the
// losses land in the Volatile tallies, not in Unsafe, because loss is the
// expected control outcome (mirroring the MidBurst volatile shards).
func TestExploreReplicaVolatileControlLoses(t *testing.T) {
	if testing.Short() {
		t.Skip("replica-loss exploration replays many full runs")
	}
	res, err := Explore(Campaign{
		Replica: &ReplicaSpec{
			Groups: 2, Replicas: 1, Volatile: true,
			Updates: 60, Seed: 11,
		},
		MaxPoints: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VolatileLost == 0 {
		t.Errorf("volatile R=1 control lost nothing across %d points — the control must demonstrate loss",
			len(res.Points))
	}
	if res.Unsafe != 0 || res.Lost != 0 {
		t.Errorf("unsafe=%d lost=%d; control losses are expected and belong in the volatile tallies",
			res.Unsafe, res.Lost)
	}
	for _, pt := range res.Points {
		if pt.Kind == MidCatchup {
			t.Errorf("mid-catchup point enumerated for R=1 — there is no donor to cut")
		}
	}
}

// Two explorations of the same replica campaign are byte-identical: same
// digest, same points, same verdicts.
func TestExploreReplicaDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("replica-loss exploration replays many full runs")
	}
	run := func() *Result {
		res, err := Explore(Campaign{
			Replica: &ReplicaSpec{
				Groups: 2, Replicas: 3,
				Updates: 60, Seed: 7,
			},
			MaxPoints: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Digest != b.Digest {
		t.Fatalf("digest diverged: %s vs %s", a.Digest, b.Digest)
	}
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("outcome counts diverged: %d vs %d", len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		x, y := a.Outcomes[i].Serve, b.Outcomes[i].Serve
		if x.AckedCommits != y.AckedCommits || x.DuraLost != y.DuraLost ||
			x.GroupLost != y.GroupLost || x.CatchupKeys != y.CatchupKeys {
			t.Errorf("point %d verdict diverged: %+v vs %+v", i, x, y)
		}
	}
}

var errTest = errors.New("device reboot: no power")

// Problems decides crashtest's exit status, so it is pinned over fabricated
// results: one row of each kind the matrix has, judged both ways.
func TestProblems(t *testing.T) {
	durable := Campaign{Scenario: faults.Scenario{Device: faults.DuraSSD, Engine: faults.EnginePgSQL, WearOut: true}}
	safeSlow := Campaign{Scenario: faults.Scenario{Device: faults.SSDA, Barrier: true, DoubleWrite: true}}
	engineControl := Campaign{Scenario: faults.Scenario{Device: faults.SSDA}}
	burst := Campaign{Burst: &BurstSpec{Volatile: []int{1, 3}}}
	quorum := Campaign{Replica: &ReplicaSpec{Replicas: 3}}
	volatileR1 := Campaign{Replica: &ReplicaSpec{Replicas: 1, Volatile: true}}

	pts := []Point{{Kind: AfterAck, At: 1000}, {Kind: MidDump, At: 2000, DumpTear: 2}}
	safe := func() *Result {
		return &Result{Name: "row", Points: pts, Outcomes: []Outcome{
			{Point: pts[0], Verdict: &faults.Verdict{AckedCommits: 5}},
			{Point: pts[1], Verdict: &faults.Verdict{AckedCommits: 9}},
		}}
	}
	unsafe := safe()
	unsafe.Unsafe, unsafe.Lost, unsafe.Torn = 1, 1, 1
	unsafe.Outcomes[1].Verdict = &faults.Verdict{
		AckedCommits: 9, LostCommits: 1, TornPages: 1,
		Losses: []faults.Loss{{Member: 0, Key: 39, Acked: 2, Torn: true}},
	}
	lossy := safe()
	lossy.VolatileLost = 7

	for _, tc := range []struct {
		name string
		c    Campaign
		res  *Result
		want []string // one substring per expected problem, in order
	}{
		{"durable row, safe", durable, safe(), nil},
		{"durable row, unsafe", durable, unsafe, []string{
			"1 of 2 crash points unsafe",
			"point 2 mid-dump tear 2 at 2µs: lost 1 torn 1 of 9 acked; member 0 key 39 acked v2 found v0 (torn)",
		}},
		{"SSD-A with barriers on is a durable row", safeSlow, unsafe, []string{"1 of 2", "point 2"}},
		{"engine control that loses", engineControl, unsafe, nil},
		{"engine control that lost nothing", engineControl, safe(), []string{"volatile control lost nothing"}},
		{"burst control that loses", burst, lossy, nil},
		{"burst control that lost nothing", burst, safe(), []string{"volatile control lost nothing"}},
		{"burst whose DuraSSD shards lost", burst, unsafe, []string{"volatile control lost nothing", "1 of 2", "point 2"}},
		{"quorum row, safe", quorum, safe(), nil},
		{"quorum row, unsafe", quorum, unsafe, []string{"1 of 2", "point 2"}},
		{"volatile R=1 that loses", volatileR1, lossy, nil},
		{"volatile R=1 that lost nothing", volatileR1, safe(), []string{"volatile control lost nothing"}},
	} {
		got := Problems(tc.c, tc.res)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d problems %q, want %d", tc.name, len(got), got, len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(got[i], w) || !strings.HasPrefix(got[i], "row: ") {
				t.Errorf("%s: problem %d = %q, want it to name the row and contain %q", tc.name, i, got[i], w)
			}
		}
	}

	// An audit that could not run is a problem on any row, the engine control
	// included.
	broken := safe()
	broken.Unsafe = 1
	broken.Outcomes[0].Verdict = &faults.Verdict{Err: errTest}
	if got := Problems(engineControl, broken); len(got) != 2 || !strings.Contains(got[1], "point 1 after-ack at 1µs: "+errTest.Error()) {
		t.Errorf("audit error on a control row: problems %q", got)
	}
}
