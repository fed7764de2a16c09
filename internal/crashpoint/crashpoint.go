// Package crashpoint explores power-failure schedules systematically
// instead of sampling them.
//
// The random-instant campaign in internal/faults answers "does a typical
// cut hurt?". This package answers the stronger question the paper's §5.2
// actually claims: does *any* cut hurt? A probe run records the device
// command schedule (every write acknowledgment, flush drain, NAND program
// and erase window), the recorder derives the adversarial instants from
// it — right after an ack, mid cell-program, mid erase pulse, mid flush
// drain, and mid capacitor dump — and each derived point is replayed as
// its own deterministic trial with the power cut pinned to that instant.
//
// Because the simulation is deterministic for a given seed, the replayed
// prefix is bit-identical to the probe's, so the cut lands exactly where
// the schedule says. Two explorations with the same campaign produce the
// same schedule digest and the same verdicts; the digest is part of the
// result so harnesses can assert it.
//
// The replays are independent simulations, so they run concurrently, on as
// many goroutines as GOMAXPROCS allows (one: serially, on the caller's).
// Each goroutine builds, runs and closes its own rigs, and shares nothing
// else with the others; outcomes land by point index and are tallied in
// point order, so the result does not depend on the core count.
//
// There is one harness. Explore — probe, derive, sample, add the subject's
// own points, sort, digest, replay and tally — is written once over a
// subject (subject.go), and there are two of those: a database engine on a
// volume (faults.RunWith) and the serving layer over replica groups (the
// serving crash rig in serving.go, which both the MidBurst and the
// ReplicaLoss campaigns lower to). Problems then judges a result against what its row of the
// matrix was built to show.
package crashpoint

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"durassd/internal/faults"
	"durassd/internal/iotrace"
)

// Kind classifies a crash point by the schedule feature it attacks.
type Kind uint8

// Crash-point kinds.
const (
	// AfterAck cuts power immediately after a host write command was
	// acknowledged — the durability contract's sharpest edge.
	AfterAck Kind = iota
	// MidProgram cuts power inside a NAND cell-program window, tearing the
	// in-flight page (the FAST'13 "shorn write").
	MidProgram
	// InFlushDrain cuts power midway through a queued flush-cache drain.
	InFlushDrain
	// MidErase cuts power inside a block-erase pulse (with the
	// interrupted-erase fault armed, the block is left indeterminate).
	MidErase
	// MidDump lets the workload cut land normally, then tears the Nth
	// capacitor-powered dump program — power dying mid-dump-block.
	MidDump
	// MidMigration cuts power midway through a bad-block retirement's
	// live-data migration (WearOut scenarios): the block is half-evacuated
	// and not yet retired when the supply dies.
	MidMigration
	// MidCatchup (ReplicaLoss campaigns) cuts the victim replica early, then
	// power-fails a second replica while the rebooted victim is mid
	// catch-up transfer — recovery under failure.
	MidCatchup
	numKinds
)

// String returns a short stable label (used in schedule digests).
func (k Kind) String() string {
	switch k {
	case AfterAck:
		return "after-ack"
	case MidProgram:
		return "mid-program"
	case InFlushDrain:
		return "in-flush-drain"
	case MidErase:
		return "mid-erase"
	case MidDump:
		return "mid-dump"
	case MidMigration:
		return "mid-migration"
	case MidCatchup:
		return "mid-catchup"
	}
	return "unknown"
}

// Point is one enumerated crash point.
type Point struct {
	Kind Kind
	// At is the virtual instant the power cut is scheduled for.
	At time.Duration
	// DumpTear, for MidDump points, is the 1-based index of the dump
	// program that the dying supply tears (0 otherwise).
	DumpTear int
}

// Campaign describes one systematic exploration.
type Campaign struct {
	// Scenario is the workload and device configuration to explore. Its
	// CutAfter is ignored: the exploration chooses the cut instants.
	// Ignored when Burst or Replica is set.
	Scenario faults.Scenario
	// Burst, when non-nil, explores the serving-layer mid-burst scenario
	// instead of a single-engine database scenario: a multi-tenant write
	// burst through internal/serve across mixed DuraSSD/volatile shards,
	// with the cut hitting every shard at the derived instant. Its
	// CutAfter is ignored, like Scenario's.
	Burst *BurstSpec
	// Replica, when non-nil, explores the replica-loss scenario: a write
	// burst through R-way replicated shard groups with one replica cut at
	// the derived instant (the victim index rotating across points), plus a
	// mid-catch-up double-fault point. Its CutAfter, CutReplica and
	// CutPeerDuringCatchup are ignored: the exploration chooses them.
	Replica *ReplicaSpec
	// MaxPoints caps the number of replayed crash points (default 24). The
	// cap is split evenly across the kinds present in the schedule, and
	// each kind's points are sampled evenly across its timeline, so the
	// exploration stays representative when it cannot be exhaustive.
	MaxPoints int
	// DumpTears is how many mid-dump tear indices to enumerate (default 3;
	// < 0 disables mid-dump points). Only meaningful on devices that dump
	// (DuraSSD); drives without a dump area get no MidDump points.
	DumpTears int
}

// Name summarizes the campaign's configuration, whichever subject it
// explores.
func (c Campaign) Name() string {
	if c.Burst != nil {
		return c.Burst.Name()
	}
	if c.Replica != nil {
		return c.Replica.Name()
	}
	return c.Scenario.Name()
}

// Outcome pairs a crash point with its audited verdict. For serving
// campaigns (Burst, Replica) Verdict holds the claim under test — acked,
// what the DuraSSD groups or the quorum lost and tore, the first findings,
// a writer's error — so reporting reads every campaign alike, and Serve
// the rig's other tallies: by device class and of the replication layer.
type Outcome struct {
	Point   Point
	Verdict *faults.Verdict
	Serve   *ServeVerdict
}

// Result is the outcome of one exploration.
type Result struct {
	// Name is the campaign name the result belongs to (Campaign.Name()).
	Name string
	// Points are the enumerated crash points, in execution order.
	Points []Point
	// Digest is the SHA-256 of the canonical schedule serialization: the
	// same seed yields the same digest, byte for byte.
	Digest string
	// Outcomes holds one verdict per point, aligned with Points.
	Outcomes []Outcome
	// Unsafe counts outcomes that lost an acked commit, exposed a torn
	// page, or failed to recover at all. For serving campaigns only the
	// DuraSSD groups count: volatile-group loss is the expected control
	// outcome, tallied separately below.
	Unsafe int
	// Lost and Torn total the losses across all outcomes (DuraSSD groups
	// only for serving campaigns).
	Lost, Torn int
	// VolatileLost and VolatileTorn total the expected losses on the
	// volatile-cache shards of burst campaigns and on the volatile R=1
	// control of replica-loss campaigns (0 for engine campaigns).
	VolatileLost, VolatileTorn int
}

// KindCounts tallies the enumerated points by kind.
func (r *Result) KindCounts() [int(numKinds)]int {
	var c [int(numKinds)]int
	for _, p := range r.Points {
		c[p.Kind]++
	}
	return c
}

// Problems judges one row of the matrix: what about res contradicts the claim
// c was built to show. A durable row fails on any unsafe point, and says
// which points and what each lost. A control row — an SSD-A engine cell with
// barriers off, a MidBurst with volatile shards, the volatile R=1 group —
// must lose something: a control that stops failing is a broken audit. An
// audit that could not run is a problem on any row.
func Problems(c Campaign, res *Result) []string {
	var out []string
	engineControl := c.Burst == nil && c.Replica == nil && c.Scenario.Device == faults.SSDA && !c.Scenario.Barrier
	servingControl := (c.Burst != nil && len(c.Burst.Volatile) > 0) || (c.Replica != nil && c.Replica.Volatile)
	controlLoss := res.VolatileLost
	if engineControl {
		controlLoss = res.Lost + res.Torn
	}
	if (engineControl || servingControl) && controlLoss == 0 {
		out = append(out, fmt.Sprintf("%s: volatile control lost nothing over %d crash points", res.Name, len(res.Points)))
	}
	if res.Unsafe > 0 && !engineControl {
		out = append(out, fmt.Sprintf("%s: %d of %d crash points unsafe", res.Name, res.Unsafe, len(res.Points)))
	}
	for i, o := range res.Outcomes {
		v := o.Verdict
		if v.Err == nil && (v.Safe() || engineControl) {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s: point %d %s", res.Name, i+1, o.Point.Kind)
		if o.Point.Kind == MidDump {
			fmt.Fprintf(&b, " tear %d", o.Point.DumpTear)
		}
		fmt.Fprintf(&b, " at %v: ", o.Point.At)
		if v.Err != nil {
			fmt.Fprint(&b, v.Err)
		} else {
			fmt.Fprintf(&b, "lost %d torn %d of %d acked", v.LostCommits, v.TornPages, v.AckedCommits)
		}
		for _, l := range v.Losses {
			fmt.Fprintf(&b, "; member %d key %d acked v%d found v%d", l.Member, l.Key, l.Acked, l.Found)
			if l.Torn {
				b.WriteString(" (torn)")
			}
		}
		out = append(out, b.String())
	}
	return out
}

// event is one recorded device event.
type event struct {
	member int
	kind   iotrace.EventKind
	at     time.Duration
}

// Explore runs the campaign on its subject: one probe run to record the
// schedule, the points derived from it plus the subject's own, then one
// deterministic replay per point, the replays side by side (see the package
// doc).
func Explore(c Campaign) (*Result, error) {
	if c.MaxPoints <= 0 {
		c.MaxPoints = 24
	}
	if c.DumpTears == 0 {
		c.DumpTears = 3
	}
	return explore(c.Name(), newSubject(c), c.MaxPoints)
}

// explore is Explore over any subject.
func explore(name string, sub subject, maxPoints int) (*Result, error) {
	events, err := sub.probe()
	if err != nil {
		return nil, fmt.Errorf("crashpoint: %s probe run: %w", name, err)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("crashpoint: %s probe run recorded no device events", name)
	}
	prof, err := sub.profile()
	if err != nil {
		return nil, err
	}
	points := samplePoints(derivePoints(events, prof.NAND.ProgramLatency, prof.NAND.EraseLatency), maxPoints)
	extra, err := sub.extraPoints(events, prof)
	if err != nil {
		return nil, fmt.Errorf("crashpoint: %s: %w", name, err)
	}
	points = append(points, extra...)
	sortPoints(points)
	points = slices.Compact(points)

	outcomes, failed, err := replayAll(sub, points)
	if err != nil {
		pt := points[failed]
		return nil, fmt.Errorf("crashpoint: %s %s at %v: %w", name, pt.Kind, pt.At, err)
	}
	res := &Result{Name: name, Points: points, Digest: digest(sub.header(), len(events), points), Outcomes: outcomes}
	for _, o := range outcomes {
		if !o.Verdict.Safe() {
			res.Unsafe++
		}
		res.Lost += o.Verdict.LostCommits
		res.Torn += o.Verdict.TornPages
		if o.Serve != nil {
			res.VolatileLost += o.Serve.VolatileLost
			res.VolatileTorn += o.Serve.VolatileTorn
		}
	}
	return res, nil
}

// replayAll replays every point on min(GOMAXPROCS, points) workers, the
// caller's goroutine one of them, and returns the outcomes indexed by
// point. Workers take points in index order and stop taking them after the
// first failure, so every point below a failed one has been replayed: the
// failure reported — an error returned, or a panic re-raised here once
// every worker has stopped — is the lowest-indexed one, as a serial loop
// would report it.
func replayAll(sub subject, points []Point) (outcomes []Outcome, failed int, err error) {
	outcomes = make([]Outcome, len(points))
	errs := make([]error, len(points))
	panics := make([]any, len(points))
	var next atomic.Int64
	var stop atomic.Bool
	work := func() {
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= len(points) {
				return
			}
			func() {
				defer func() {
					if v := recover(); v != nil {
						panics[i] = v
						stop.Store(true)
					}
				}()
				outcomes[i], errs[i] = sub.replay(i, points[i])
				outcomes[i].Point = points[i]
			}()
			if errs[i] != nil {
				stop.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(points)) - 1 {
		wg.Add(1)
		//simlint:allow simproc each worker builds, runs and closes its own rigs; nothing simulated crosses goroutines and outcomes are tallied in point order
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for i := range points {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return nil, i, errs[i]
		}
	}
	return outcomes, 0, nil
}

// ackSpan returns the cut instants right after the earliest and the latest
// write ack of the schedule (0, 0 if it has none). +1ns: the scheduler fires
// cut events before same-instant device events, so cutting exactly at the
// ack timestamp would land *before* the acknowledgment in the replay.
func ackSpan(events []event) (first, last time.Duration) {
	for _, ev := range events {
		if ev.kind != iotrace.EvWriteAck {
			continue
		}
		at := ev.at + time.Nanosecond
		if first == 0 || at < first {
			first = at
		}
		last = max(last, at)
	}
	return first, last
}

// derivePoints turns the recorded schedule into candidate crash points.
func derivePoints(events []event, progLat, eraseLat time.Duration) []Point {
	var pts []Point
	flushStart := make(map[int]time.Duration)
	retireStart := make(map[int]time.Duration)
	for _, ev := range events {
		switch ev.kind {
		case iotrace.EvWriteAck:
			pts = append(pts, Point{Kind: AfterAck, At: ev.at + time.Nanosecond}) // see ackSpan
		case iotrace.EvProgram:
			pts = append(pts, Point{Kind: MidProgram, At: ev.at + progLat/2})
		case iotrace.EvErase:
			pts = append(pts, Point{Kind: MidErase, At: ev.at + eraseLat/2})
		case iotrace.EvFlushStart:
			flushStart[ev.member] = ev.at
		case iotrace.EvFlushEnd:
			if st, ok := flushStart[ev.member]; ok && ev.at > st {
				pts = append(pts, Point{Kind: InFlushDrain, At: st + (ev.at-st)/2})
				delete(flushStart, ev.member)
			}
		case iotrace.EvRetireStart:
			retireStart[ev.member] = ev.at
		case iotrace.EvRetireEnd:
			if st, ok := retireStart[ev.member]; ok && ev.at > st {
				pts = append(pts, Point{Kind: MidMigration, At: st + (ev.at-st)/2})
				delete(retireStart, ev.member)
			}
		}
	}
	return pts
}

// samplePoints enforces the MaxPoints cap: the budget is split evenly over
// the kinds present, and each kind keeps an even spread over its sorted
// timeline (first and last always included).
func samplePoints(pts []Point, maxPoints int) []Point {
	byKind := make(map[Kind][]Point)
	var kinds []Kind
	for _, p := range pts {
		if _, ok := byKind[p.Kind]; !ok {
			kinds = append(kinds, p.Kind)
		}
		byKind[p.Kind] = append(byKind[p.Kind], p)
	}
	slices.Sort(kinds)
	quota := maxPoints / len(kinds)
	if quota < 1 {
		quota = 1
	}
	var out []Point
	for _, k := range kinds {
		group := byKind[k]
		sortPoints(group)
		group = slices.Compact(group)
		if len(group) <= quota {
			out = append(out, group...)
			continue
		}
		if quota == 1 {
			out = append(out, group[len(group)-1])
			continue
		}
		for i := 0; i < quota; i++ {
			out = append(out, group[i*(len(group)-1)/(quota-1)])
		}
	}
	return out
}

func sortPoints(pts []Point) {
	slices.SortFunc(pts, func(a, b Point) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.DumpTear, b.DumpTear))
	})
}

// digest serializes the schedule canonically — the subject's header line,
// then one line per point — and hashes it.
func digest(header string, eventCount int, pts []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s events=%d\n", header, eventCount)
	for _, p := range pts {
		fmt.Fprintf(&b, "%s@%d tear=%d\n", p.Kind, int64(p.At), p.DumpTear)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
