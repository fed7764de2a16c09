package crashpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// TestMatrixOutcomesPinned pins every outcome of the crashtest matrix at
// `-points 16 -updates 240`, seeds 1–3: each point, the audit's counts and
// findings, and on serving rows every tally of the serving verdict. A
// changed digest is a behaviour change, not a re-pin.
func TestMatrixOutcomesPinned(t *testing.T) {
	want := map[int64]string{
		1: "3ac6eb0d25697b7ea2e71d0d33c9add1e7ef64e2cfa3276527c02ecf3d65a4e2",
		2: "29704f4f2e958331350aee77a045411fa1db29b8eedbbfa0ac4da03c308422a6",
		3: "10feb7f5f06316ed489fd0a04a969b3827dc37a3c59469c9b4bac1472a5a02f7",
	}
	for seed := int64(1); seed <= 3; seed++ {
		var b strings.Builder
		for _, c := range Matrix(16, 240, seed) {
			res, err := Explore(c)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.Name(), err)
			}
			fmt.Fprintf(&b, "%s %s\n", res.Name, res.Digest)
			for _, o := range res.Outcomes {
				v := o.Verdict
				fmt.Fprintf(&b, "%s@%d tear=%d acked=%d lost=%d torn=%d redo=%d dump=%d retries=%d lostdev=%d losses=%d err=%v",
					o.Point.Kind, int64(o.Point.At), o.Point.DumpTear,
					v.AckedCommits, v.LostCommits, v.TornPages, v.RedoApplied,
					v.DumpPages, v.DumpRetries, v.LostDevPages, len(v.Losses), v.Err)
				for _, l := range v.Losses {
					fmt.Fprintf(&b, " [%d %d %d %d %t]", l.Member, l.Key, l.Acked, l.Found, l.Torn)
				}
				if s := o.Serve; s != nil {
					fmt.Fprintf(&b, " | acked=%d dkeys=%d vkeys=%d grouplost=%d dlost=%d dtorn=%d vlost=%d vtorn=%d catchup=%d total=%d behind=%d shed=%d unavailable=%d",
						s.AckedCommits, s.DuraKeys, s.VolatileKeys, s.GroupLost,
						s.DuraLost, s.DuraTorn, s.VolatileLost, s.VolatileTorn,
						s.CatchupKeys, s.TotalKeys, s.BehindAfter, s.Shed, s.Unavailable)
				}
				b.WriteByte('\n')
			}
		}
		sum := sha256.Sum256([]byte(b.String()))
		if got := hex.EncodeToString(sum[:]); got != want[seed] {
			t.Errorf("seed %d: matrix outcomes digest %s, want %s", seed, got, want[seed])
		}
	}
}
