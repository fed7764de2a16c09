package crashpoint

import (
	"fmt"
	"strings"
	"testing"
)

// TestMatrixDigestSetDeterminism is the double-run regression the simlint
// suite exists to keep true: the full `crashtest` campaign matrix
// (both engines, all three host configurations), run twice in-process with
// the same seed, must produce a byte-identical set of schedule digests and
// identical safety tallies. Any wall-clock read, global-rand draw, raw
// goroutine, or map-order leak anywhere under the exploration stack would
// show up here as a digest or verdict divergence.
func TestMatrixDigestSetDeterminism(t *testing.T) {
	run := func() string {
		var b strings.Builder
		for _, c := range Matrix(3, 60, 11) {
			res, err := Explore(c)
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			fmt.Fprintf(&b, "%s %s", res.Name, res.Digest)
			for _, o := range res.Outcomes {
				fmt.Fprintf(&b, " | %s@%d tear=%d acked=%d lost=%d torn=%d safe=%t",
					o.Point.Kind, int64(o.Point.At), o.Point.DumpTear,
					o.Verdict.AckedCommits, o.Verdict.LostCommits, o.Verdict.TornPages, o.Verdict.Safe())
				if o.Serve != nil {
					fmt.Fprintf(&b, " vlost=%d vtorn=%d", o.Serve.VolatileLost, o.Serve.VolatileTorn)
				}
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	first := run()
	second := run()
	if first != second {
		t.Fatalf("explore matrix diverged between identical-seed runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, " ") || strings.Count(first, "\n") != 11 {
		t.Fatalf("unexpected digest-set shape:\n%s", first)
	}
}
