package crashpoint

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"durassd/internal/faults"
)

// Serving crash rig tests. MidBurst: the paper's §5.2 durability claim,
// audited through the full serving layer. A power cut lands mid-burst on
// every shard of a mixed DuraSSD/SSD-A box running with barriers off; acked
// writes on the DuraSSD shards must all survive, and the volatile-cache
// shards must lose some — the control group that proves the audit has
// teeth. ReplicaLoss: quorum-acked writes over DuraSSD replicas survive the
// loss of replicas.

// runCrash runs the rig and fails the test on a rig error. The claim under
// test reads from the returned Verdict, the rig's other tallies from v.
func runCrash(t *testing.T, sp ReplicaSpec, o faults.Options) (fv *faults.Verdict, v *ServeVerdict) {
	t.Helper()
	out, err := runServe(sp, o)
	if err != nil {
		t.Fatal(err)
	}
	return out.Verdict, out.Serve
}

// testBurst is the burst these tests run: four shards, the odd ones on
// volatile-cache drives, 240 updates.
func testBurst(seed int64) BurstSpec {
	return BurstSpec{Shards: 4, Volatile: []int{1, 3}, Updates: 240, Seed: seed}
}

// TestMidBurstDuraSafeVolatileLossy is the headline assertion.
func TestMidBurstDuraSafeVolatileLossy(t *testing.T) {
	fv, v := runCrash(t, testBurst(1).replicated(), faults.Options{})
	if fv.Err != nil {
		t.Fatalf("audit error: %v", fv.Err)
	}
	if v.AckedCommits == 0 {
		t.Fatal("no commit was acknowledged before the cut")
	}
	if v.DuraKeys == 0 || v.VolatileKeys == 0 {
		t.Fatalf("audit did not cover both device classes: dura=%d volatile=%d keys",
			v.DuraKeys, v.VolatileKeys)
	}
	if v.DuraLost != 0 || v.DuraTorn != 0 {
		t.Errorf("DuraSSD shards lost %d / tore %d acked writes; the durable cache claim is broken",
			v.DuraLost, v.DuraTorn)
	}
	if v.VolatileLost == 0 {
		t.Error("volatile-cache shards lost nothing: the cut landed after everything drained, so the audit proves nothing")
	}
	if !fv.Safe() {
		t.Error("verdict not Safe despite clean DuraSSD tallies")
	}
	// Every loss has its provenance: a volatile shard (1 or 3; at R = 1 the
	// member is the shard), below the acked version, in (member, key) order.
	if want := min(v.VolatileLost, maxLosses); len(fv.Losses) != want {
		t.Fatalf("%d findings kept for %d losses, want %d", len(fv.Losses), v.VolatileLost, want)
	}
	for i, l := range fv.Losses {
		if l.Member != 1 && l.Member != 3 {
			t.Errorf("finding %+v is not on a volatile shard", l)
		}
		if l.Found >= l.Acked || (l.Torn && l.Found != 0) {
			t.Errorf("finding %+v is not a loss", l)
		}
		if p := fv.Losses[max(i-1, 0)]; p.Member > l.Member || (p.Member == l.Member && p.Key > l.Key) {
			t.Errorf("findings out of (member, key) order: %+v before %+v", p, l)
		}
	}
}

// TestMidBurstNoCutClean: without a power cut the burst completes and the
// audit finds every acked version on every shard, volatile included — loss
// in the cut runs comes from the cut, not from the rig.
func TestMidBurstNoCutClean(t *testing.T) {
	fv, v := runCrash(t, testBurst(1).replicated(), faults.Options{NoCut: true})
	if fv.Err != nil {
		t.Fatalf("audit error: %v", fv.Err)
	}
	if v.AckedCommits == 0 {
		t.Fatal("no commits acknowledged")
	}
	if v.GroupLost+v.DuraLost+v.DuraTorn+v.VolatileLost+v.VolatileTorn+len(fv.Losses) != 0 {
		t.Errorf("losses without a power cut: %+v", v)
	}
}

// TestMidBurstAllDuraSafe: a box built entirely from DuraSSD shards survives
// the same cut with zero loss anywhere.
func TestMidBurstAllDuraSafe(t *testing.T) {
	sp := testBurst(1)
	sp.Volatile = nil
	fv, v := runCrash(t, sp.replicated(), faults.Options{})
	if v.VolatileKeys != 0 {
		t.Fatalf("no shard is volatile but %d keys audited as volatile", v.VolatileKeys)
	}
	if !fv.Safe() || v.DuraLost != 0 || v.DuraTorn != 0 {
		t.Errorf("all-DuraSSD box lost data: %+v", v)
	}
}

// TestMidBurstDeterminism: identical spec and seed reproduce the identical
// verdict — the property the crashpoint campaign's replays depend on.
func TestMidBurstDeterminism(t *testing.T) {
	run := func() string {
		fv, v := runCrash(t, testBurst(3).replicated(), faults.Options{})
		return fmt.Sprintf("%+v %+v", fv, v)
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("mid-burst verdict diverged between identical runs:\n%s\n--- vs ---\n%s", first, second)
	}
}

// The stop rule. A cut at R = 1 takes every replica there is, so nothing can
// ack again and each writer ends at its first refusal; a cut that leaves the
// groups a quorum ends nobody, and every writer runs out its budget.
func TestCrashWholeBoxCutStopsWriters(t *testing.T) {
	for _, sp := range []ReplicaSpec{
		testBurst(1).replicated(),
		{Groups: 2, Replicas: 1, Volatile: true, Updates: 160, Seed: 7},
	} {
		sp.CutAfter = 2 * time.Millisecond
		_, v := runCrash(t, sp, faults.Options{})
		sp.defaults()
		writers := sp.Tenants * sp.Writers
		if v.Unavailable == 0 || v.Unavailable > writers {
			t.Errorf("%s: %d refusals from %d writers, want one each at most", sp.Name(), v.Unavailable, writers)
		}
		if got := v.AckedCommits + v.Shed + v.Unavailable; got >= sp.Updates {
			t.Errorf("%s: %d of %d Puts attempted although the box died at 2ms", sp.Name(), got, sp.Updates)
		}
	}
	sp := ReplicaSpec{Groups: 2, Replicas: 3, Updates: 160, Seed: 7, CutAfter: 2 * time.Millisecond}
	_, v := runCrash(t, sp, faults.Options{})
	sp.defaults()
	if got := v.AckedCommits + v.Shed + v.Unavailable; got != sp.Updates {
		t.Errorf("single-victim cut: %d of %d Puts attempted; the groups kept their quorum, no writer may stop", got, sp.Updates)
	}
}

// A device class for a group the rig does not have is a spec error, not a
// silently all-DuraSSD run.
func TestCrashRejectsVolatileGroupOutOfRange(t *testing.T) {
	for _, sp := range []ReplicaSpec{
		{Groups: 2, Replicas: 3, VolatileGroups: []int{2}},
		{Groups: 2, Replicas: 3, VolatileGroups: []int{-1}},
		BurstSpec{Shards: 4, Volatile: []int{1, 4}}.replicated(),
	} {
		if _, err := runServe(sp, faults.Options{NoCut: true}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("volatile groups %v of %d: err = %v, want out of range", sp.VolatileGroups, sp.Groups, err)
		}
	}
}

// The replication claim as a property: a write acked at quorum W=2 over R=3
// DuraSSD replicas survives a crash of any W-1=1 replicas at any cut
// instant — readable from the survivors before the victim returns, and
// converged on every replica after reboot plus delta catch-up.
func TestReplicaLossQuorumAckedSurvivesAnyVictim(t *testing.T) {
	cuts := []time.Duration{
		1 * time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	}
	for victim := 0; victim < 3; victim++ {
		for _, cut := range cuts {
			fv, v := runCrash(t, ReplicaSpec{
				Groups: 2, Replicas: 3,
				Updates: 120, Keys: 64, Seed: 7,
				CutAfter: cut, CutReplica: victim,
			}, faults.Options{})
			if v.AckedCommits == 0 {
				t.Fatalf("victim %d cut %v: no acked commits, nothing audited", victim, cut)
			}
			if !fv.Safe() {
				t.Errorf("victim %d cut %v: groupLost=%d lost=%d torn=%d err=%v — quorum-acked writes must survive any single replica loss",
					victim, cut, v.GroupLost, v.DuraLost, v.DuraTorn, fv.Err)
			}
			if v.BehindAfter != 0 {
				t.Errorf("victim %d cut %v: %d keys still behind after catch-up", victim, cut, v.BehindAfter)
			}
		}
	}
}

// The rebooted replica's rejoin is a delta transfer, not a full rebuild:
// strictly fewer keys move than the replica's resident key count, and the
// group serves throughout.
func TestReplicaLossCatchupIsDelta(t *testing.T) {
	fv, v := runCrash(t, ReplicaSpec{
		Groups: 2, Replicas: 3,
		Updates: 160, Keys: 96, Seed: 11,
		CutAfter: 2 * time.Millisecond, CutReplica: 1,
	}, faults.Options{})
	if !fv.Safe() {
		t.Fatalf("unsafe: %+v %+v", fv, v)
	}
	if v.CatchupKeys == 0 {
		t.Fatalf("catch-up transferred nothing; the victim missed writes during its outage")
	}
	if v.CatchupKeys >= v.TotalKeys {
		t.Errorf("catch-up moved %d keys of a %d-key space — that is a rebuild, not a delta",
			v.CatchupKeys, v.TotalKeys)
	}
}

// Losing a second replica mid-catch-up still loses nothing: acked writes
// live on at least W=2 durable replicas, so even with the rejoining victim
// and one donor down, the data survives and converges once both return.
func TestReplicaLossSecondCutDuringCatchup(t *testing.T) {
	fv, v := runCrash(t, ReplicaSpec{
		Groups: 2, Replicas: 3,
		Updates: 160, Keys: 96, Seed: 13,
		CutAfter: 2 * time.Millisecond, CutReplica: 0,
		CutPeerDuringCatchup: true,
	}, faults.Options{})
	if v.AckedCommits == 0 {
		t.Fatal("no acked commits")
	}
	if !fv.Safe() {
		t.Errorf("unsafe under double fault: groupLost=%d lost=%d torn=%d err=%v",
			v.GroupLost, v.DuraLost, v.DuraTorn, fv.Err)
	}
	if v.BehindAfter != 0 {
		t.Errorf("%d keys still behind after both replicas recovered", v.BehindAfter)
	}
}

// The control: R=1 over a volatile-cache SSD-A. No quorum to hide behind,
// no durable cache — acked writes that had not drained are gone after the
// crash, which is exactly the contrast the replication layer (and the
// paper's durable cache) exists to close.
func TestReplicaLossVolatileControlLosesAckedWrites(t *testing.T) {
	fv, v := runCrash(t, ReplicaSpec{
		Groups: 2, Replicas: 1, Volatile: true,
		Updates: 160, Keys: 96, Seed: 7,
		CutAfter: 2 * time.Millisecond,
	}, faults.Options{})
	if v.AckedCommits == 0 {
		t.Fatal("no acked commits before the cut")
	}
	if v.VolatileLost == 0 {
		t.Errorf("volatile R=1 control lost nothing (%d acked keys) — the control must demonstrate loss",
			v.VolatileKeys)
	}
	if !fv.Safe() || v.DuraKeys != 0 {
		t.Errorf("control loss counted against the claim under test: %+v %+v", fv, v)
	}
}

// The probe configuration (no fault at all) is trivially safe — the rig
// itself must not manufacture loss.
func TestReplicaLossProbeIsClean(t *testing.T) {
	fv, v := runCrash(t, ReplicaSpec{
		Groups: 2, Replicas: 3, Updates: 120, Keys: 64, Seed: 3,
	}, faults.Options{NoCut: true})
	if !fv.Safe() || v.GroupLost != 0 || v.DuraLost != 0 {
		t.Fatalf("probe run unsafe: %+v %+v", fv, v)
	}
	if v.Unavailable != 0 {
		t.Errorf("probe run shed %d writes as unavailable with all replicas healthy", v.Unavailable)
	}
}
