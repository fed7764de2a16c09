package crashpoint

import "durassd/internal/faults"

// Matrix returns the canonical exploration campaign set that
// `crashtest` runs, one row per campaign.
//
// Rows 1–8 cross both engines with the three host configurations the paper
// contrasts — DuraSSD in the fast configuration (barriers off, torn-page
// protection off), the volatile-cache SSD-A in the same fast configuration
// (where it must fail), and SSD-A in the safe-but-slow configuration (where
// software protection saves it) — plus a wear-out cell: DuraSSD in the fast
// configuration with bad-block retirement armed, so the exploration also
// cuts power mid-migration.
//
// Row 9 is MidBurst: a multi-tenant write burst through the internal/serve
// gateway over four shards, two DuraSSD and two volatile, all in the fast
// configuration, with the cut hitting every shard at the derived instant. It
// extends the claim one layer up: an ack returned through the serving layer
// is durable exactly when the shard underneath has a durable cache.
//
// Rows 10 and 11 are ReplicaLoss: the same burst through R=3 W=2 replicated
// DuraSSD shard groups, with a single replica of every group cut at the
// derived instant (the victim rotating across points) plus a mid-catch-up
// double fault. Quorum-acked writes must survive every point. The R=1
// volatile control demonstrates the opposite: no quorum, no durable cache,
// acked writes vanish — tallied as VolLost, the expected control outcome.
//
// Keeping the matrix here, rather than inlined in cmd/crashtest, lets the
// determinism regression test replay the exact same campaign set twice and
// assert the full digest set is byte-identical. It only describes: no rig,
// profile or subject is built until Explore.
func Matrix(points, updates int, seed int64) []Campaign {
	engine := func(eng faults.EngineKind, dev faults.DeviceKind, safe, wear bool) Campaign {
		return Campaign{
			Scenario: faults.Scenario{
				Device: dev, Engine: eng,
				Barrier: safe, DoubleWrite: safe,
				Clients: 4, Updates: updates, Seed: seed,
				WearOut: wear,
			},
			MaxPoints: points,
			DumpTears: 2,
		}
	}
	// One allocation holds the specs the serving rows point at and the
	// eleven rows, which the appends below fill in place.
	m := new(struct {
		rows     [11]Campaign
		burst    BurstSpec
		volatile [2]int
		replica  [2]ReplicaSpec
	})
	m.volatile = [2]int{1, 3}
	m.burst = BurstSpec{Shards: 4, Volatile: m.volatile[:], Updates: updates, Seed: seed}
	m.replica = [2]ReplicaSpec{
		{Groups: 2, Replicas: 3, Updates: updates, Seed: seed},
		{Groups: 2, Replicas: 1, Volatile: true, Updates: updates, Seed: seed},
	}
	rows := m.rows[:0]
	for _, eng := range []faults.EngineKind{faults.EngineInnoDB, faults.EnginePgSQL} {
		rows = append(rows,
			engine(eng, faults.DuraSSD, false, false),
			engine(eng, faults.SSDA, false, false),
			engine(eng, faults.SSDA, true, false),
			engine(eng, faults.DuraSSD, false, true),
		)
	}
	return append(rows,
		Campaign{MaxPoints: points, Burst: &m.burst},
		Campaign{MaxPoints: points, Replica: &m.replica[0]},
		Campaign{MaxPoints: points, Replica: &m.replica[1]},
	)
}
