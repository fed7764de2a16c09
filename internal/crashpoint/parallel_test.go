package crashpoint

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"durassd/internal/faults"
	"durassd/internal/iotrace"
	"durassd/internal/ssd"
)

// withProcs runs fn at the given GOMAXPROCS.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestExploreParallelMatchesSerial: replaying the points side by side must
// not change a byte of the result. The campaigns cover the extra point
// kinds — mid-migration and mid-dump on the wear-out engine cell,
// mid-catch-up on ReplicaLoss — whose replays are the longest and the least
// alike.
func TestExploreParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration replays many full runs")
	}
	m := Matrix(6, 120, 1)
	for _, tc := range []struct {
		c     Campaign
		kinds []Kind
	}{
		{m[7], []Kind{MidMigration, MidDump}}, // DuraSSD pgsql wear barrier=off fpw=off
		{m[9], []Kind{MidCatchup}},            // ReplicaLoss R=3
	} {
		var res [2]*Result
		for i, procs := range []int{1, 4} {
			withProcs(procs, func() {
				r, err := Explore(tc.c)
				if err != nil {
					t.Fatalf("%s at GOMAXPROCS %d: %v", tc.c.Name(), procs, err)
				}
				res[i] = r
			})
		}
		counts := res[0].KindCounts()
		for _, k := range tc.kinds {
			if counts[k] == 0 {
				t.Errorf("%s: no %s point explored", res[0].Name, k)
			}
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("%s: results differ between GOMAXPROCS 1 and 4:\n%+v\n%+v", res[0].Name, res[0], res[1])
		}
	}
}

// fakeSubject explores without a rig: its probe records n write acks one
// microsecond apart, so a campaign of at least n points has exactly n
// after-ack points, and each replay is whatever fn does.
type fakeSubject struct {
	n  int
	fn func(i int) (Outcome, error)
}

func (f fakeSubject) header() string                { return "scenario=fake" }
func (f fakeSubject) profile() (ssd.Profile, error) { return faults.Profile(faults.DuraSSD) }

func (f fakeSubject) probe() ([]event, error) {
	events := make([]event, f.n)
	for i := range events {
		events[i] = event{kind: iotrace.EvWriteAck, at: time.Duration(i+1) * time.Microsecond}
	}
	return events, nil
}

func (f fakeSubject) extraPoints([]event, ssd.Profile) ([]Point, error) { return nil, nil }
func (f fakeSubject) replay(i int, _ Point) (Outcome, error)            { return f.fn(i) }

func safeOutcome() Outcome { return Outcome{Verdict: &faults.Verdict{}} }

// TestExploreReportsLowestFailingPoint: with points 3 and 7 failing, the
// error is point 3's and reads as the serial loop words it — even when
// point 7 fails first.
func TestExploreReportsLowestFailingPoint(t *testing.T) {
	const n = 10
	run := func(procs int, gate bool) error {
		sevenFailed := make(chan struct{})
		sub := fakeSubject{n: n, fn: func(i int) (Outcome, error) {
			switch i {
			case 3:
				if gate {
					<-sevenFailed
				}
				return Outcome{}, fmt.Errorf("point %d failed", i)
			case 7:
				if gate {
					close(sevenFailed)
				}
				return Outcome{}, fmt.Errorf("point %d failed", i)
			}
			return safeOutcome(), nil
		}}
		var err error
		withProcs(procs, func() { _, err = explore("fake", sub, n) })
		return err
	}
	want := fmt.Sprintf("crashpoint: fake after-ack at %v: point 3 failed", 4*time.Microsecond+time.Nanosecond)
	serial := run(1, false)
	if serial == nil || serial.Error() != want {
		t.Fatalf("serial error = %v, want %q", serial, want)
	}
	if parallel := run(4, true); parallel == nil || parallel.Error() != serial.Error() {
		t.Fatalf("parallel error = %v, want the serial %q", parallel, serial)
	}
}

// TestExploreRepanicsAfterWorkersStop: a replay that panics takes the
// caller down with the same value, but only once every other replay in
// flight has returned — no worker outlives Explore.
func TestExploreRepanicsAfterWorkersStop(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			var running atomic.Int32
			var slowDone atomic.Bool
			started, panicking := make(chan struct{}), make(chan struct{})
			sub := fakeSubject{n: 8, fn: func(i int) (Outcome, error) {
				running.Add(1)
				defer running.Add(-1)
				switch {
				case i == 0 && procs > 1:
					// Still replaying when point 1 panics.
					close(started)
					<-panicking
					for range 1000 {
						runtime.Gosched()
					}
					slowDone.Store(true)
				case i == 1:
					if procs > 1 {
						<-started
						close(panicking)
					}
					panic("replay 1 blew up")
				}
				return safeOutcome(), nil
			}}
			defer func() {
				if v := recover(); v != "replay 1 blew up" {
					t.Fatalf("recovered %v, want the replay's panic", v)
				}
				if running.Load() != 0 || (procs > 1 && !slowDone.Load()) {
					t.Fatal("Explore re-panicked while a replay was still running")
				}
			}()
			withProcs(procs, func() { _, _ = explore("fake", sub, 8) })
			t.Fatal("explore returned instead of panicking")
		})
	}
}
