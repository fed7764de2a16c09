// Package faults injects power failures into full database stacks and
// verifies the paper's central claims end to end:
//
//   - DuraSSD keeps every acknowledged commit and never exposes a torn
//     page, in every host configuration — including the fast one (write
//     barriers off, double-write buffer off).
//   - A volatile-cache SSD in the fast configuration loses acknowledged
//     commits and/or leaves shorn pages, reproducing the anomalies of the
//     FAST'13 power-fault study the paper cites (§5.2).
//   - The safe-but-slow configuration (barriers on, double-write on)
//     protects even the volatile drive — at the throughput cost Tables 1–5
//     quantify.
//
// A scenario runs a database engine (InnoDB or PostgreSQL) in RealBytes
// mode (checksummed page images, real redo records) on a simulated device,
// cuts power at the scenario's instant under load, reboots the device
// (running its firmware recovery), reopens the engine, runs torn-page +
// redo recovery, and then audits every acknowledged transaction.
//
// RunWith's options are the knobs crash-point exploration needs: an event
// recorder for the command schedule, NAND-level fault injection (partial
// dump, interrupted erase), and probe runs without a cut.
package faults

import (
	"fmt"
	"math/rand"
	"time"

	"durassd/internal/dbsim/buffer"
	"durassd/internal/host"
	"durassd/internal/iotrace"
	"durassd/internal/nand"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
	"durassd/internal/vol"
)

// DeviceKind selects the drive under test.
type DeviceKind string

// Devices under test.
const (
	DuraSSD DeviceKind = "DuraSSD"
	SSDA    DeviceKind = "SSD-A"
)

// Layout selects the volume geometry under test.
type Layout string

// Volume geometries. The interesting cases are the composed ones: a power
// cut hits every member of a volume at the same instant, so striping or
// mirroring volatile-cache drives does not buy back durability — while
// DuraSSD members keep their guarantees in any geometry.
const (
	Single  Layout = ""        // one drive (default)
	Striped Layout = "striped" // RAID-0 over Width members
	Mirror  Layout = "mirror"  // RAID-1 over Width members
)

// Scenario describes one crash experiment.
type Scenario struct {
	Device      DeviceKind
	Engine      EngineKind // database engine (default: InnoDB)
	Layout      Layout     // volume geometry (default: single drive)
	Width       int        // volume member count (default 2)
	Barrier     bool
	DoubleWrite bool // InnoDB double-write buffer / PostgreSQL full-page writes
	Clients     int
	Updates     int           // updates attempted before/while power fails
	CutAfter    time.Duration // power-cut instant; must be positive unless the run has no cut
	Seed        int64
	// WearOut arms the media wear-out story: the device gets a bad-block
	// reserve pool and a patrol scrubber, a cold filler region is preloaded
	// outside the database footprint, and mid-workload one filler page is
	// hit with uncorrectable damage. The scrubber discovers it and retires
	// the block, migrating its live data — so the schedule contains a
	// retirement window for crash-point exploration to cut into.
	WearOut bool
}

func (s *Scenario) defaults() {
	if s.Engine == "" {
		s.Engine = EngineInnoDB
	}
	if s.Clients <= 0 {
		s.Clients = 8
	}
	if s.Updates <= 0 {
		s.Updates = 400
	}
	if s.Layout != Single && s.Width <= 0 {
		s.Width = 2
	}
}

// Name summarizes the configuration.
func (s Scenario) Name() string {
	b, d := "off", "off"
	if s.Barrier {
		b = "on"
	}
	if s.DoubleWrite {
		d = "on"
	}
	dev := string(s.Device)
	if s.Layout != Single {
		w := s.Width
		if w <= 0 {
			w = 2
		}
		dev = fmt.Sprintf("%s %s-%d", s.Device, s.Layout, w)
	}
	prot := "dwb" // torn-page protection knob: DWB (InnoDB) or FPW (PostgreSQL)
	if s.Engine == EnginePgSQL {
		prot = "fpw"
	}
	if s.Engine != "" && s.Engine != EngineInnoDB {
		dev = fmt.Sprintf("%s %s", dev, s.Engine)
	}
	if s.WearOut {
		dev += " wear"
	}
	return fmt.Sprintf("%s barrier=%s %s=%s", dev, b, prot, d)
}

// Options are the extra knobs crash-point exploration layers on a Scenario.
type Options struct {
	// NoCut runs the workload to completion without a power cut: the probe
	// run that records the command schedule.
	NoCut bool
	// EventFn, when set, observes device events (write acks, flush drains,
	// NAND programs and erases) on every volume member during the workload
	// phase. The member index disambiguates flush start/end pairing.
	EventFn func(member int, kind iotrace.EventKind, at time.Duration)
	// DumpTearAfter arms the partial-dump fault on member 0: the Nth
	// capacitor-powered dump program tears its page (see nand.Faults).
	DumpTearAfter int
	// InterruptedErase arms the interrupted-erase fault on every member.
	InterruptedErase bool
}

// Verdict is the audited outcome of one crash.
type Verdict struct {
	Scenario     Scenario
	AckedCommits int
	LostCommits  int // acked commits whose page versions regressed
	TornPages    int // unrepairable torn pages found by recovery
	RedoApplied  int
	DumpPages    int64
	DumpRetries  int64 // dump programs retried after a torn dump page
	LostDevPages int64
	// Losses are the first maxLosses findings behind LostCommits, in
	// (Member, Key) order.
	Losses []Loss
	Err    error
}

// Loss is one thing the audit found wrong: page Key reads back below its
// acked version, or as an image that fails its checksum (Torn, Found 0).
// Member is the volume member that holds it — 0 here, where the audit reads
// through the engine and the volume; the serving rig, whose findings
// crashpoint reports in the same record, numbers its replicas.
type Loss struct {
	Member            int
	Key, Acked, Found uint64
	Torn              bool
}

// maxLosses is how many findings a verdict keeps.
const maxLosses = 8

// Safe reports whether the configuration preserved every guarantee.
func (v *Verdict) Safe() bool {
	return v.Err == nil && v.LostCommits == 0 && v.TornPages == 0
}

// Profile returns the ssd.Profile behind a device kind (exploration reads
// program/erase latencies from it to place mid-operation crash points).
func Profile(k DeviceKind) (ssd.Profile, error) {
	switch k {
	case DuraSSD:
		return ssd.DuraSSD(16), nil
	case SSDA:
		return ssd.SSDA(16), nil
	}
	return ssd.Profile{}, fmt.Errorf("faults: unknown device %q", k)
}

// RunWith executes the scenario with exploration options and audits the
// aftermath.
func RunWith(s Scenario, o Options) (*Verdict, error) {
	if s.CutAfter <= 0 && !o.NoCut {
		return nil, fmt.Errorf("faults: cut instant %v is not positive", s.CutAfter)
	}
	s.defaults()
	v := &Verdict{Scenario: s}
	eng := sim.New()
	var members []storage.Device
	defer func() {
		eng.Close() // the rig's service loops and cut-off writers park for ever
		for _, m := range members {
			m.(*ssd.Device).Release() // the next rig takes its memory
		}
	}()

	prof, err := Profile(s.Device)
	if err != nil {
		return nil, err
	}
	if s.WearOut {
		// Bad-block handling armed: a small reserve pool and a patrol
		// scrubber aggressive enough to find planted damage mid-campaign.
		prof.FTL.ReserveBlocks = 2
		prof.FTL.ScrubInterval = 5 * time.Millisecond
	}
	dev, err := buildDevice(eng, prof, s)
	if err != nil {
		return nil, err
	}
	if s.WearOut {
		if err := armWearOut(eng, dev); err != nil {
			return nil, err
		}
	}
	members = memberDevices(dev)
	for i, m := range members {
		arr, hasArr := m.(interface{ Array() *nand.Array })
		if hasArr {
			fl := arr.Array().Faults()
			fl.InterruptedErase = o.InterruptedErase
			if i == 0 {
				fl.DumpTearAfter = o.DumpTearAfter
			}
			arr.Array().SetFaults(fl)
		}
		if o.EventFn != nil {
			member := i
			m.Registry().SetEventFn(func(kind iotrace.EventKind, at time.Duration) {
				o.EventFn(member, kind, at)
			})
		}
	}
	fs := host.NewFS(dev, s.Barrier)

	h, err := newHarness(s)
	if err != nil {
		return nil, err
	}
	if err := h.load(eng, fs); err != nil {
		return nil, err
	}

	// Writer clients: update random rows, commit, record acked versions.
	acked := make(map[buffer.PageID]uint64)
	ackedCount := 0
	perClient := s.Updates / s.Clients
	for c := 0; c < s.Clients; c++ {
		rng := rand.New(rand.NewSource(s.Seed + int64(c)*7_919))
		eng.Go(fmt.Sprintf("writer-%d", c), func(p *sim.Proc) {
			for i := 0; i < perClient; i++ {
				touched, err := h.update(p, rng.Int63n(tableRows))
				if err != nil {
					return // power failed mid-operation
				}
				// The commit was acknowledged: its versions must survive.
				for _, pv := range touched {
					if pv.Version > acked[pv.ID] {
						acked[pv.ID] = pv.Version
					}
				}
				ackedCount++
			}
		})
	}

	cycler := dev.(storage.PowerCycler)
	if !o.NoCut {
		eng.Schedule(s.CutAfter, func() { cycler.PowerFail() })
	}
	eng.Run()
	h.e.Close() // stops the pre-crash engine's background procs
	for _, m := range members {
		m.Registry().SetEventFn(nil) // the schedule covers the workload only
	}
	v.AckedCommits = ackedCount
	for _, m := range members {
		v.DumpPages += m.Stats().DumpPages
		v.DumpRetries += m.Stats().DumpRetries
		v.LostDevPages += m.Stats().LostPages
	}

	// Reboot the device (firmware recovery) and the engine (torn-page
	// repair + redo).
	var auditErr error
	eng.Go("recovery", func(p *sim.Proc) {
		if err := cycler.Reboot(p); err != nil {
			auditErr = fmt.Errorf("device reboot: %w", err)
			return
		}
		rep, err := h.recoverCrashed(p, eng, fs)
		if err != nil {
			auditErr = fmt.Errorf("engine recovery: %w", err)
			return
		}
		defer h.e.Close()
		v.TornPages = rep.TornUnrepaired
		v.RedoApplied = rep.RedoApplied
		auditErr = h.audit(p, acked, v)
	})
	eng.Run()
	if auditErr != nil {
		v.Err = auditErr
		v.TornPages, v.RedoApplied = 0, 0
	}
	return v, nil
}

const (
	// wearFillerSlots is the size of the cold filler region preloaded at the
	// top of the address space for WearOut scenarios — far above the
	// database files, so the damaged page is never part of the commit audit.
	wearFillerSlots = 64
	// wearInjectAt is the virtual instant the stuck damage is planted.
	wearInjectAt = 2 * time.Millisecond
)

// armWearOut preloads the filler region and schedules the mid-workload
// damage injection on it. The scrubber (enabled via the profile) finds the
// unreadable page on patrol and retires its block, so retirement and its
// live-data migration happen during the recorded schedule.
func armWearOut(eng *sim.Engine, dev storage.Device) error {
	pl, okPl := dev.(interface {
		PreloadPages(lpn storage.LPN, n int64, data []byte) error
	})
	mf, okMf := dev.(storage.MediaFaulter)
	if !okPl || !okMf {
		return fmt.Errorf("faults: device does not support wear-out arming")
	}
	base := storage.LPN(dev.Pages() - wearFillerSlots)
	if err := pl.PreloadPages(base, wearFillerSlots, nil); err != nil {
		return fmt.Errorf("faults: wear filler preload: %w", err)
	}
	eng.Schedule(wearInjectAt, func() { mf.InjectReadErrors(base+3, 1000) })
	return nil
}

// buildDevice assembles the device under test: a single drive, or a volume
// of identical drives per the scenario's layout.
func buildDevice(eng *sim.Engine, prof ssd.Profile, s Scenario) (storage.Device, error) {
	if s.Layout == Single {
		return ssd.New(eng, prof)
	}
	members := make([]storage.Device, s.Width)
	for i := range members {
		m, err := ssd.New(eng, prof)
		if err != nil {
			return nil, err
		}
		members[i] = m
	}
	switch s.Layout {
	case Striped:
		return vol.NewStriped(eng, members, 0)
	case Mirror:
		return vol.NewMirror(eng, members)
	}
	return nil, fmt.Errorf("faults: unknown layout %q", s.Layout)
}

// memberDevices returns the physical drives behind dev: the volume members
// when dev is composed, dev itself otherwise. Firmware-level counters
// (dump pages, lost pages) live on the members.
func memberDevices(dev storage.Device) []storage.Device {
	if m, ok := dev.(interface{ Members() []storage.Device }); ok {
		return m.Members()
	}
	return []storage.Device{dev}
}
