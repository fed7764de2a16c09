package vol

import (
	"errors"

	"durassd/internal/devfront"
	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// Mirror is a RAID-1 volume: every write lands on all members, reads
// rotate round-robin across them. A mirror does NOT protect against power
// loss — the cut hits both copies at the same instant, so a mirror of
// volatile-cache SSDs can still lose or tear acknowledged writes (both
// members drop their caches together), while a mirror of DuraSSDs cannot.
//
// After a power cycle the copies may legitimately diverge: each member's
// firmware recovered whatever its own cache state allowed, so page images
// can differ between members. The mirror therefore reboots into a degraded
// mode in which all reads are served from member 0 (the primary) and, when
// the read carries real bytes, the primary's image is re-written onto the
// secondaries ("read-repair"). Once every page of a range has been
// repaired, reads of that range resume round-robin fan-out. A repair —
// this one, or the media repair of a clean mirror's unreadable copy — and
// a write of the same page exclude each other: otherwise a write landing
// between the repair's read and its rewrite would be overwritten by the
// older image.
type Mirror struct {
	volume
	next     int // round-robin read cursor
	degraded bool
	repaired map[storage.LPN]bool // pages reconciled since the last reboot
	inflight map[storage.LPN]int  // per page: writes (> 0) or repairs (< 0) in flight
	settled  *sim.Queue           // woken when an inflight count drops
}

// NewMirror builds a RAID-1 volume over members; member 0 is the primary
// copy used for post-crash reconciliation.
func NewMirror(eng *sim.Engine, members []storage.Device) (*Mirror, error) {
	base, err := newVolume(eng, "mirror", members)
	if err != nil {
		return nil, err
	}
	return &Mirror{
		volume:   base,
		inflight: make(map[storage.LPN]int),
		settled:  sim.NewQueue(eng),
	}, nil
}

// Pages returns the volume capacity: the smallest member's.
func (v *Mirror) Pages() int64 { return minPages(v.members) }

// writeSegs returns one same-range segment per member (the whole payload
// goes to everyone).
func (v *Mirror) writeSegs(lpn storage.LPN, n int) []segment {
	segs := make([]segment, len(v.members))
	for i := range segs {
		segs[i] = segment{member: i, lpn: lpn, n: n}
	}
	return segs
}

// Write stores n pages on every member; it acknowledges when the slowest
// copy has acknowledged.
func (v *Mirror) Write(p *sim.Proc, req iotrace.Req, lpn storage.LPN, n int, data []byte) error {
	if err := v.front.AdmitRange(lpn, n, v.Pages()); err != nil {
		return err
	}
	if err := devfront.CheckBuf("vol: mirror write", data, n, v.pageSize); err != nil {
		return err
	}
	// Count the write in even when no repair is in flight: one that starts
	// while this write is landing must wait for it.
	defer v.unhold(v.hold(p, 1, lpn, n), 1, lpn, n)
	err := v.fanout(p, v.writeSegs(lpn, n), func(q *sim.Proc, s segment) error {
		return v.members[s.member].Write(q, child(req, s), s.lpn, s.n, data)
	})
	if err != nil {
		return err
	}
	// A fresh write overwrites any divergence on all copies at once.
	v.markRepaired(lpn, n)
	v.front.CompleteWrite(req, n)
	return nil
}

// Read serves n pages from one copy: round-robin when the mirror is clean,
// from the primary (with read-repair onto the secondaries) while degraded.
func (v *Mirror) Read(p *sim.Proc, req iotrace.Req, lpn storage.LPN, n int, buf []byte) error {
	if err := v.front.AdmitRange(lpn, n, v.Pages()); err != nil {
		return err
	}
	if err := devfront.CheckBuf("vol: mirror read", buf, n, v.pageSize); err != nil {
		return err
	}
	if v.degraded && !v.rangeRepaired(lpn, n) {
		if err := v.readRepair(p, req, lpn, n, buf); err != nil {
			return err
		}
	} else {
		m := v.next
		v.next = (v.next + 1) % len(v.members)
		err := v.members[m].Read(p, req, lpn, n, buf)
		if errors.Is(err, storage.ErrUncorrectable) {
			// The selected copy has an unreadable page: serve the data from a
			// healthy replica and rewrite the damaged one (read-repair during
			// normal operation, not just post-crash reconciliation).
			held := v.hold(p, -1, lpn, n)
			err = v.repairFrom(p, req, m, lpn, n, buf)
			v.unhold(held, -1, lpn, n)
		}
		if err != nil {
			return err
		}
	}
	v.front.CompleteRead(req, n)
	return nil
}

// readRepair serves a degraded read from the primary and, when the caller
// supplied a real buffer, pushes the primary's image onto the secondaries
// so the copies reconverge. Timing-only reads (nil buf) cannot repair —
// there are no bytes to copy — so they leave the range degraded.
func (v *Mirror) readRepair(p *sim.Proc, req iotrace.Req, lpn storage.LPN, n int, buf []byte) error {
	if buf != nil {
		defer v.unhold(v.hold(p, -1, lpn, n), -1, lpn, n)
	}
	err := v.members[0].Read(p, req, lpn, n, buf)
	if errors.Is(err, storage.ErrUncorrectable) {
		// Even the primary can hit unreadable media; fall back to the
		// secondaries and heal the primary before reconciling from it.
		err = v.repairFrom(p, req, 0, lpn, n, buf)
	}
	if err != nil {
		return err
	}
	if buf == nil {
		return nil
	}
	segs := make([]segment, 0, len(v.members)-1)
	for i := 1; i < len(v.members); i++ {
		segs = append(segs, segment{member: i, lpn: lpn, n: n})
	}
	err = v.fanout(p, segs, func(q *sim.Proc, s segment) error {
		r := iotrace.Req{Op: iotrace.OpWrite, Origin: req.Origin, LPN: uint64(s.lpn), N: s.n}
		return v.members[s.member].Write(q, r, s.lpn, s.n, buf)
	})
	if err != nil {
		return err
	}
	v.markRepaired(lpn, n)
	return nil
}

// hold waits until no page of the range has an operation of the other kind
// (1 for a write, -1 for a repair) in flight, then counts this one in the
// table it returns for unhold; a reboot in between starts a fresh table.
func (v *Mirror) hold(p *sim.Proc, kind int, lpn storage.LPN, n int) map[storage.LPN]int {
	for i := 0; i < n; i++ {
		if v.inflight[lpn+storage.LPN(i)]*kind < 0 {
			v.settled.Wait(p)
			i = -1 // re-check the whole range
		}
	}
	for i := 0; i < n; i++ {
		v.inflight[lpn+storage.LPN(i)] += kind
	}
	return v.inflight
}

func (v *Mirror) unhold(held map[storage.LPN]int, kind int, lpn storage.LPN, n int) {
	for i := 0; i < n; i++ {
		k := lpn + storage.LPN(i)
		if held[k] -= kind; held[k] == 0 {
			delete(held, k)
		}
	}
	v.settled.WakeAll()
}

// repairFrom serves lpn..lpn+n from the first replica that still reads
// cleanly (scanning from bad+1 in deterministic order) and rewrites the
// healthy image onto the damaged member so its firmware remaps the range
// away from the failing flash. The volume read succeeds as long as any
// copy survives; ErrUncorrectable escapes to the host only when every
// member returns it.
func (v *Mirror) repairFrom(p *sim.Proc, req iotrace.Req, bad int, lpn storage.LPN, n int, buf []byte) error {
	for off := 1; off < len(v.members); off++ {
		m := (bad + off) % len(v.members)
		r := iotrace.Req{Op: iotrace.OpRead, Origin: req.Origin, LPN: uint64(lpn), N: n}
		if err := v.members[m].Read(p, r, lpn, n, buf); err != nil {
			if errors.Is(err, storage.ErrUncorrectable) {
				continue // this copy is damaged too; keep scanning
			}
			return err
		}
		w := iotrace.Req{Op: iotrace.OpWrite, Origin: req.Origin, LPN: uint64(lpn), N: n}
		if werr := v.members[bad].Write(p, w, lpn, n, buf); werr == nil {
			v.front.Stats().ReadRepairs++
		}
		// A failed rewrite (member degraded read-only, power race) leaves the
		// damage in place — the read still succeeded with correct bytes, and
		// the next read of the range retries the repair.
		return nil
	}
	return storage.ErrUncorrectable
}

func (v *Mirror) markRepaired(lpn storage.LPN, n int) {
	if !v.degraded {
		return // a write or another repair reconciled the last page first
	}
	for i := 0; i < n; i++ {
		v.repaired[lpn+storage.LPN(i)] = true
	}
	if int64(len(v.repaired)) == v.Pages() {
		v.degraded = false
		v.repaired = nil
	}
}

func (v *Mirror) rangeRepaired(lpn storage.LPN, n int) bool {
	for i := 0; i < n; i++ {
		if !v.repaired[lpn+storage.LPN(i)] {
			return false
		}
	}
	return true
}

// Flush issues flush-cache on every member concurrently.
func (v *Mirror) Flush(p *sim.Proc, req iotrace.Req) error {
	if err := flushAll(&v.volume, p, req); err != nil {
		return err
	}
	v.front.CompleteFlush()
	return nil
}

// PowerFail cuts power to both copies at the same instant — the scenario a
// mirror cannot defend against.
func (v *Mirror) PowerFail() {
	if !v.front.PowerFail() {
		return
	}
	v.powerFailMembers()
}

// Reboot powers the members back up in parallel, then enters degraded mode:
// the copies may have recovered different page images, so reads reconcile
// against the primary until every page has been repaired or rewritten.
func (v *Mirror) Reboot(p *sim.Proc) error {
	if !v.front.Offline() {
		return nil
	}
	if err := v.rebootMembers(p); err != nil {
		return err
	}
	v.degraded = true
	v.repaired = make(map[storage.LPN]bool)
	v.inflight = make(map[storage.LPN]int)
	v.front.PowerOn()
	return nil
}

// InjectReadErrors plants stuck bit errors on every secondary copy of lpn
// (storage.MediaFaulter). The primary is left intact deliberately: it is
// the reconciliation source while degraded, and damaging every copy would
// test data loss, not redundancy. Returns true when at least one member
// accepted the injection.
func (v *Mirror) InjectReadErrors(lpn storage.LPN, bits int) bool {
	any := false
	for _, m := range v.members[1:] {
		if mf, ok := m.(storage.MediaFaulter); ok && mf.InjectReadErrors(lpn, bits) {
			any = true
		}
	}
	return any
}

// PreloadPages installs page images instantly on every member.
func (v *Mirror) PreloadPages(lpn storage.LPN, n int64, data []byte) error {
	if err := checkPreload(lpn, n, v.Pages()); err != nil {
		return err
	}
	for i := range v.members {
		if err := v.preloadSegment(segment{member: i, lpn: lpn, n: int(n)}, data); err != nil {
			return err
		}
	}
	return nil
}
