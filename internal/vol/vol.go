// Package vol composes multiple storage.Devices into one: striped (RAID-0)
// volumes with a configurable chunk size, and mirrored (RAID-1) volumes with
// read fan-out and post-recovery read-repair.
// Every volume implements storage.Device, storage.PowerCycler and the host
// layer's Preloader, so a database engine mounts a volume exactly like a
// single drive.
//
// The interesting part is the crash semantics. A power cut hits every
// member at the same instant — there is no "the mirror saves you" story
// against power loss, because both copies lose their volatile caches
// together. A stripe or mirror of DuraSSDs therefore inherits the durable
// cache's guarantees (no acknowledged write is lost, no page tears), while
// the same volume geometry over volatile-cache drives inherits their
// failure modes: `cmd/crashtest` demonstrates both. Recovery after a cut
// replays each member's own firmware recovery (in parallel, as real arrays
// power on), then the mirror enters a reconciliation mode in which reads
// are served from the primary copy and repaired onto the secondaries,
// because divergent members may hold different post-crash page images.
//
// Volumes reuse the shared devfront layer for power-state gating, uniform
// ErrOutOfRange checking and the metrics registry; they add no link or
// queue of their own (each member brings its own host interface).
package vol

import (
	"fmt"

	"durassd/internal/devfront"
	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// preloader matches host.Preloader without importing the host package.
type preloader interface {
	PreloadPages(lpn storage.LPN, n int64, data []byte) error
}

// writeCacher is implemented by devices with a toggleable write cache.
type writeCacher interface {
	SetWriteCache(on bool)
}

// volume is the state shared by every volume type.
type volume struct {
	eng      *sim.Engine
	front    *devfront.Front
	members  []storage.Device
	pageSize int
}

func newVolume(eng *sim.Engine, kind string, members []storage.Device) (volume, error) {
	if len(members) == 0 {
		return volume{}, fmt.Errorf("vol: %s needs at least one member", kind)
	}
	ps := members[0].PageSize()
	for i, m := range members {
		if m == nil {
			return volume{}, fmt.Errorf("vol: %s member %d is nil", kind, i)
		}
		if m.PageSize() != ps {
			return volume{}, fmt.Errorf("vol: %s member %d page size %d != %d", kind, i, m.PageSize(), ps)
		}
	}
	reg := iotrace.NewRegistry()
	return volume{
		eng:      eng,
		front:    devfront.New(eng, devfront.Config{}, reg),
		members:  members,
		pageSize: ps,
	}, nil
}

// PageSize returns the common mapping-unit size of the members.
func (v *volume) PageSize() int { return v.pageSize }

// Members returns the member devices in order (member 0 is the mirror
// primary). Callers must not mutate the slice.
func (v *volume) Members() []storage.Device { return v.members }

// Stats returns the volume-level counters (host commands served by the
// volume; each member keeps its own counters too).
func (v *volume) Stats() *storage.Stats { return v.front.Stats() }

// Registry returns the volume's unified metrics registry.
func (v *volume) Registry() *iotrace.Registry { return v.front.Registry() }

// SetWriteCache forwards the cache toggle to every member that has one.
func (v *volume) SetWriteCache(on bool) {
	for _, m := range v.members {
		if wc, ok := m.(writeCacher); ok {
			wc.SetWriteCache(on)
		}
	}
}

// segment is the portion of one volume command that lands on one member.
type segment struct {
	member int
	lpn    storage.LPN // member-local page address
	n      int         // pages
	off    int         // page offset within the volume command
}

// slice returns the sub-buffer of a command payload covering seg (nil stays
// nil for timing-only commands).
func (s segment) slice(buf []byte, pageSize int) []byte {
	if buf == nil {
		return nil
	}
	return buf[s.off*pageSize : (s.off+s.n)*pageSize]
}

// child derives the member-command request context for one segment of a
// fanned-out volume command. It deliberately drops the parent's trace —
// spans from concurrently executing members cannot nest into one request —
// but keeps the op and origin so member registries attribute traffic
// correctly. Single-segment commands bypass this and carry the parent
// request (with its trace) straight through.
func child(req iotrace.Req, s segment) iotrace.Req {
	return iotrace.Req{Op: req.Op, Origin: req.Origin, LPN: uint64(s.lpn), N: s.n}
}

// fanout runs one operation per segment concurrently (each in its own
// simulated process) and blocks the caller until all complete. It returns
// the first error in segment order, so outcomes are deterministic.
func (v *volume) fanout(p *sim.Proc, segs []segment, op func(q *sim.Proc, s segment) error) error {
	if len(segs) == 1 {
		return op(p, segs[0])
	}
	errs := make([]error, len(segs))
	wg := sim.NewWaitGroup(v.eng)
	for i := range segs {
		i := i
		wg.Add(1)
		v.eng.Spawn("vol-io", func(q *sim.Proc) {
			defer wg.Done()
			errs[i] = op(q, segs[i])
		})
	}
	wg.Wait(p)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// powerFailMembers cuts power to every member that supports it.
func (v *volume) powerFailMembers() {
	for _, m := range v.members {
		if pc, ok := m.(storage.PowerCycler); ok {
			pc.PowerFail()
		}
	}
}

// rebootMembers restores power to every member in parallel — real arrays
// spin their drives up concurrently — and returns the first error in
// member order.
func (v *volume) rebootMembers(p *sim.Proc) error {
	errs := make([]error, len(v.members))
	wg := sim.NewWaitGroup(v.eng)
	for i, m := range v.members {
		pc, ok := m.(storage.PowerCycler)
		if !ok {
			continue
		}
		i, pc := i, pc
		wg.Add(1)
		v.eng.Go("vol-reboot", func(q *sim.Proc) {
			defer wg.Done()
			errs[i] = pc.Reboot(q)
		})
	}
	wg.Wait(p)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// flushAll issues flush-cache on every member concurrently and returns the
// first error in member order.
func flushAll(v *volume, p *sim.Proc, req iotrace.Req) error {
	if err := v.front.Admit(); err != nil {
		return err
	}
	if len(v.members) == 1 {
		return v.members[0].Flush(p, req)
	}
	errs := make([]error, len(v.members))
	wg := sim.NewWaitGroup(v.eng)
	for i, m := range v.members {
		i, m := i, m
		wg.Add(1)
		v.eng.Spawn("vol-flush", func(q *sim.Proc) {
			defer wg.Done()
			errs[i] = m.Flush(q, iotrace.Req{Op: req.Op, Origin: req.Origin})
		})
	}
	wg.Wait(p)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// preloadSegment forwards one preload segment to a member, requiring the
// member to support instant loads.
func (v *volume) preloadSegment(s segment, data []byte) error {
	pl, ok := v.members[s.member].(preloader)
	if !ok {
		return fmt.Errorf("vol: member %d does not support preloading", s.member)
	}
	return pl.PreloadPages(s.lpn, int64(s.n), s.slice(data, v.pageSize))
}

// checkPreload validates a bulk-load range against the volume capacity.
func checkPreload(lpn storage.LPN, n int64, pages int64) error {
	if n < 0 || uint64(lpn) > uint64(pages) || uint64(n) > uint64(pages)-uint64(lpn) {
		return storage.ErrOutOfRange
	}
	return nil
}

// minPages returns the smallest member capacity.
func minPages(members []storage.Device) int64 {
	min := members[0].Pages()
	for _, m := range members[1:] {
		if p := m.Pages(); p < min {
			min = p
		}
	}
	return min
}
