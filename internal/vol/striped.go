package vol

import (
	"fmt"

	"durassd/internal/devfront"
	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// DefaultChunkPages is the stripe unit used when a caller passes
// chunkPages <= 0: 64 KB of 4 KB pages, the common md/RAID-0 default.
const DefaultChunkPages = 16

// Striped is a RAID-0 volume: consecutive chunks of chunkPages pages
// rotate across the members, so one large command — or many concurrent
// small ones — keeps every member busy at once. Capacity is the smallest
// member's, floored to a whole number of chunks, times the member count.
type Striped struct {
	volume
	chunk       int64 // stripe unit in pages
	memberPages int64 // usable pages per member (chunk multiple)
}

// NewStriped builds a RAID-0 volume over members with the given stripe
// unit in pages (<= 0 selects DefaultChunkPages).
func NewStriped(eng *sim.Engine, members []storage.Device, chunkPages int) (*Striped, error) {
	base, err := newVolume(eng, "striped", members)
	if err != nil {
		return nil, err
	}
	if chunkPages <= 0 {
		chunkPages = DefaultChunkPages
	}
	chunk := int64(chunkPages)
	usable := (minPages(members) / chunk) * chunk
	if usable == 0 {
		return nil, fmt.Errorf("vol: striped members smaller than one %d-page chunk", chunkPages)
	}
	return &Striped{volume: base, chunk: chunk, memberPages: usable}, nil
}

// Pages returns the volume capacity in pages.
func (v *Striped) Pages() int64 { return v.memberPages * int64(len(v.members)) }

// mapRange splits a volume command into per-member segments, one per chunk
// crossing. Segments stay in volume-address order so error reporting and
// buffer slicing are deterministic.
func (v *Striped) mapRange(lpn storage.LPN, n int) []segment {
	nMembers := int64(len(v.members))
	segs := make([]segment, 0, 4)
	addr := int64(lpn)
	left := int64(n)
	off := 0
	for left > 0 {
		chunkIdx := addr / v.chunk
		within := addr % v.chunk
		cnt := v.chunk - within
		if cnt > left {
			cnt = left
		}
		segs = append(segs, segment{
			member: int(chunkIdx % nMembers),
			lpn:    storage.LPN((chunkIdx/nMembers)*v.chunk + within),
			n:      int(cnt),
			off:    off,
		})
		addr += cnt
		left -= cnt
		off += int(cnt)
	}
	return segs
}

// Read reads n pages starting at lpn, fanning out across the stripe.
func (v *Striped) Read(p *sim.Proc, req iotrace.Req, lpn storage.LPN, n int, buf []byte) error {
	if err := v.front.AdmitRange(lpn, n, v.Pages()); err != nil {
		return err
	}
	if err := devfront.CheckBuf("vol: striped read", buf, n, v.pageSize); err != nil {
		return err
	}
	segs := v.mapRange(lpn, n)
	err := v.fanout(p, segs, func(q *sim.Proc, s segment) error {
		r := req
		if len(segs) > 1 {
			r = child(req, s)
		}
		return v.members[s.member].Read(q, r, s.lpn, s.n, s.slice(buf, v.pageSize))
	})
	if err != nil {
		return err
	}
	v.front.CompleteRead(req, n)
	return nil
}

// Write writes n pages starting at lpn, fanning out across the stripe.
func (v *Striped) Write(p *sim.Proc, req iotrace.Req, lpn storage.LPN, n int, data []byte) error {
	if err := v.front.AdmitRange(lpn, n, v.Pages()); err != nil {
		return err
	}
	if err := devfront.CheckBuf("vol: striped write", data, n, v.pageSize); err != nil {
		return err
	}
	segs := v.mapRange(lpn, n)
	err := v.fanout(p, segs, func(q *sim.Proc, s segment) error {
		r := req
		if len(segs) > 1 {
			r = child(req, s)
		}
		return v.members[s.member].Write(q, r, s.lpn, s.n, s.slice(data, v.pageSize))
	})
	if err != nil {
		return err
	}
	v.front.CompleteWrite(req, n)
	return nil
}

// Flush issues flush-cache to every member concurrently; it returns once
// the slowest member has drained.
func (v *Striped) Flush(p *sim.Proc, req iotrace.Req) error {
	if err := flushAll(&v.volume, p, req); err != nil {
		return err
	}
	v.front.CompleteFlush()
	return nil
}

// PowerFail cuts power to the whole array at once.
func (v *Striped) PowerFail() {
	if !v.front.PowerFail() {
		return
	}
	v.powerFailMembers()
}

// Reboot powers the members back up in parallel and runs their recovery.
func (v *Striped) Reboot(p *sim.Proc) error {
	if !v.front.Offline() {
		return nil
	}
	if err := v.rebootMembers(p); err != nil {
		return err
	}
	v.front.PowerOn()
	return nil
}

// InjectReadErrors forwards a media-fault injection to the member holding
// lpn (storage.MediaFaulter).
func (v *Striped) InjectReadErrors(lpn storage.LPN, bits int) bool {
	s := v.mapRange(lpn, 1)[0]
	mf, ok := v.members[s.member].(storage.MediaFaulter)
	return ok && mf.InjectReadErrors(s.lpn, bits)
}

// PreloadPages installs page images instantly across the stripe (bulk
// loading before a timed run).
func (v *Striped) PreloadPages(lpn storage.LPN, n int64, data []byte) error {
	if err := checkPreload(lpn, n, v.Pages()); err != nil {
		return err
	}
	for _, s := range v.mapRange(lpn, int(n)) {
		if err := v.preloadSegment(s, data); err != nil {
			return err
		}
	}
	return nil
}
