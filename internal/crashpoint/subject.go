package crashpoint

import (
	"fmt"
	"time"

	"durassd/internal/faults"
	"durassd/internal/iotrace"
	"durassd/internal/ssd"
)

// subject is what a campaign explores: a rig that runs its workload once to
// completion so the schedule can be recorded, and once more per crash point
// with the cut pinned there. Explore is written once over it. There are two:
// a database engine on one volume (faults.RunWith) and the serving layer over
// replica groups (runServe, serving.go).
type subject interface {
	// header is the first line of the canonical schedule, less the event
	// count.
	header() string
	// profile is the drive whose program and erase latencies place the
	// mid-operation points.
	profile() (ssd.Profile, error)
	// probe runs the workload with no cut and returns every device event.
	probe() ([]event, error)
	// extraPoints returns the points only this subject has, beyond those
	// derived from the schedule.
	extraPoints(events []event, prof ssd.Profile) ([]Point, error)
	// replay runs the i-th point of the campaign and audits it. Explore fills
	// in Outcome.Point.
	replay(i int, pt Point) (Outcome, error)
}

func newSubject(c Campaign) subject {
	switch {
	case c.Burst != nil:
		return serveSubject{c.Name(), c.Burst.replicated()}
	case c.Replica != nil:
		sp := *c.Replica
		if sp.Replicas <= 0 {
			sp.Replicas = 3 // the rig's default, needed here to rotate the victim
		}
		return serveSubject{c.Name(), sp}
	}
	s := c.Scenario
	s.CutAfter = 0
	return engineSubject{s, c.DumpTears}
}

// recorder collects a probe run's device events.
type recorder []event

func (r *recorder) record(member int, kind iotrace.EventKind, at time.Duration) {
	*r = append(*r, event{member, kind, at})
}

// engineSubject explores a faults.Scenario. Its own points are the mid-dump
// tears: the cut lands at the latest acknowledged write (maximal dirty
// state) and the dying supply tears the Nth capacitor-powered dump program.
type engineSubject struct {
	s     faults.Scenario // CutAfter is the replay's to set
	tears int
}

func (e engineSubject) header() string {
	return fmt.Sprintf("scenario=%s engine=%s seed=%d", e.s.Name(), e.s.Engine, e.s.Seed)
}

func (e engineSubject) profile() (ssd.Profile, error) { return faults.Profile(e.s.Device) }

func (e engineSubject) probe() ([]event, error) {
	var rec recorder
	_, err := faults.RunWith(e.s, faults.Options{NoCut: true, EventFn: rec.record})
	return rec, err
}

// extraPoints cuts once at the last ack to count the dump the firmware
// performs, then spaces the tear indices evenly across it, last included.
// Only drives with a dump area (DuraSSD) get any.
func (e engineSubject) extraPoints(events []event, prof ssd.Profile) ([]Point, error) {
	_, lastAck := ackSpan(events)
	if e.tears <= 0 || !prof.Cache.Durable || lastAck == 0 {
		return nil, nil
	}
	s := e.s
	s.CutAfter = lastAck
	probe, err := faults.RunWith(s, faults.Options{})
	if err != nil {
		return nil, fmt.Errorf("dump probe: %w", err)
	}
	n := int(probe.DumpPages)
	tears := min(e.tears, n)
	var pts []Point
	for i := 0; i < tears; i++ {
		k := 1 + i*(n-1)/max(1, tears-1) // 1-based
		if tears == 1 {
			k = n
		}
		pts = append(pts, Point{Kind: MidDump, At: lastAck, DumpTear: k})
	}
	return pts, nil
}

// replay arms the interrupted-erase fault in every trial — it only changes
// behaviour when an erase pulse is actually in flight at the cut, and arming
// it uniformly keeps the fault surface maximal.
func (e engineSubject) replay(_ int, pt Point) (Outcome, error) {
	s := e.s
	s.CutAfter = pt.At
	v, err := faults.RunWith(s, faults.Options{DumpTearAfter: pt.DumpTear, InterruptedErase: true})
	return Outcome{Verdict: v}, err
}

// serveSubject explores the serving crash rig, for both campaign families
// that lower to it. The probe records the merged device schedule across
// every replica of every group, so the derived points attack whichever drive
// was busiest at each instant; the replays cut one replica of every group
// and rotate the victim index across points, so over the campaign every
// replica position gets cut (at R = 1, MidBurst and the volatile control,
// that is the whole box every time). Mid-dump tears are an engine-campaign
// refinement and are not enumerated here.
//
// A point is unsafe only if a quorum ack was unreadable or a DuraSSD group
// lost or tore something — the paper's claim surviving the serving layer.
// Volatile-group loss is the expected control result and is tallied in
// Result.VolatileLost/VolatileTorn.
type serveSubject struct {
	name string
	sp   ReplicaSpec // the cut fields are the replay's to set
}

func (s serveSubject) header() string {
	return fmt.Sprintf("scenario=%s seed=%d", s.name, s.sp.Seed)
}

// profile is the drive runServe builds for the spec's device class. With
// mixed device classes the volatile members' windows differ
// slightly from DuraSSD's, but every derived instant is still a legitimate
// adversarial cut — the replay audit, not the point placement, decides
// safety.
func (s serveSubject) profile() (ssd.Profile, error) { return faults.Profile(drive(s.sp.Volatile)) }

func (s serveSubject) probe() ([]event, error) {
	var rec recorder
	o, err := runServe(s.sp, faults.Options{NoCut: true, EventFn: rec.record})
	if err == nil && o.Verdict.Err != nil {
		err = fmt.Errorf("audit: %w", o.Verdict.Err)
	}
	return rec, err
}

// extraPoints adds the recovery-under-failure arm: the victim is cut at the
// earliest ack, which maximizes what it misses and so what catch-up has to
// transfer, and a second replica power-fails shortly after the transfer
// begins. That needs a live donor, so it only exists for R > 1.
func (s serveSubject) extraPoints(events []event, _ ssd.Profile) ([]Point, error) {
	if firstAck, _ := ackSpan(events); s.sp.Replicas > 1 && firstAck > 0 {
		return []Point{{Kind: MidCatchup, At: firstAck}}, nil
	}
	return nil, nil
}

func (s serveSubject) replay(i int, pt Point) (Outcome, error) {
	sp := s.sp
	sp.CutAfter = pt.At
	sp.CutReplica = i % sp.Replicas
	sp.CutPeerDuringCatchup = pt.Kind == MidCatchup
	return runServe(sp, faults.Options{})
}
