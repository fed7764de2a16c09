package vol

import (
	"fmt"

	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// This file teaches volumes to span cluster domains: a striped, mirrored or
// concatenated array whose member devices live on different simulation
// shards. The volume itself (its devfront, fanout processes and error
// aggregation) runs in one "front" domain; each remote member is wrapped in
// a proxy that turns the blocking storage.Device calls into cross-domain
// request/completion pairs via sim.Domain.Call, and power cuts into
// cross-domain messages. The existing striped/mirror/concat logic is reused
// unchanged — it cannot tell a proxied member from a local one, so array
// crash semantics (fanout error order, mirror read-repair, recovery
// sequencing) carry over verbatim.
//
// Crash semantics across the boundary: a PowerFail on the span reaches
// each member one link latency later, as a message ordered FIFO with any
// in-flight member commands from the same source. Acknowledged volume
// writes stay durable — the volume only acknowledges after every member
// round trip completes, and a member round trip completes only if the
// member processed the write before the cut arrives. The cut skew between
// members is bounded by the lookahead window, mirroring a real array whose
// power rails and HBA links do not fail at the exact same instant.

// SpanMember binds one member device to the cluster domain it lives in.
type SpanMember struct {
	Dev storage.Device
	Dom *sim.Domain
}

// spanVolume is the member-facing surface a span exposes — deliberately
// narrowed: no storage.MediaFaulter, because injecting media faults into a
// remote member would mutate another domain outside its execution.
type spanVolume interface {
	storage.Device
	storage.PowerCycler
	PreloadPages(lpn storage.LPN, n int64, data []byte) error
	SetWriteCache(on bool)
	Members() []storage.Device
}

// Span is a volume whose members live in different cluster domains. It
// implements storage.Device, storage.PowerCycler and the host preloader —
// but not storage.MediaFaulter (see spanVolume). Construct one with
// NewStripedSpan, NewMirrorSpan or NewConcatSpan and use it exactly like a
// single-engine volume from processes in the front domain.
type Span struct {
	spanVolume
	front *sim.Domain
}

// Front returns the domain the span volume runs in.
func (s *Span) Front() *sim.Domain { return s.front }

// wrapMembers validates domains and proxies every member that lives
// outside the front domain, linking the front to that member's domain.
func wrapMembers(front *sim.Domain, members []SpanMember) ([]storage.Device, error) {
	if front == nil {
		return nil, fmt.Errorf("vol: span needs a front domain")
	}
	devs := make([]storage.Device, len(members))
	for i, m := range members {
		if m.Dev == nil {
			return nil, fmt.Errorf("vol: span member %d is nil", i)
		}
		if m.Dom == nil {
			return nil, fmt.Errorf("vol: span member %d has no domain", i)
		}
		if m.Dom.Cluster() != front.Cluster() {
			return nil, fmt.Errorf("vol: span member %d is in a different cluster", i)
		}
		if m.Dom == front {
			devs[i] = m.Dev
			continue
		}
		front.Link(m.Dom)
		devs[i] = &remoteDev{front: front, dom: m.Dom, dev: m.Dev}
	}
	return devs, nil
}

// NewStripedSpan builds a RAID-0 volume over members that may live in
// other cluster domains (chunkPages <= 0 selects DefaultChunkPages).
func NewStripedSpan(front *sim.Domain, members []SpanMember, chunkPages int) (*Span, error) {
	devs, err := wrapMembers(front, members)
	if err != nil {
		return nil, err
	}
	v, err := NewStriped(front.Engine(), devs, chunkPages)
	if err != nil {
		return nil, err
	}
	return &Span{spanVolume: v, front: front}, nil
}

// NewMirrorSpan builds a RAID-1 volume over members that may live in other
// cluster domains.
func NewMirrorSpan(front *sim.Domain, members []SpanMember) (*Span, error) {
	devs, err := wrapMembers(front, members)
	if err != nil {
		return nil, err
	}
	v, err := NewMirror(front.Engine(), devs)
	if err != nil {
		return nil, err
	}
	return &Span{spanVolume: v, front: front}, nil
}

// NewConcatSpan builds a concatenated volume over members that may live in
// other cluster domains.
func NewConcatSpan(front *sim.Domain, members []SpanMember) (*Span, error) {
	devs, err := wrapMembers(front, members)
	if err != nil {
		return nil, err
	}
	v, err := NewConcat(front.Engine(), devs)
	if err != nil {
		return nil, err
	}
	return &Span{spanVolume: v, front: front}, nil
}

// remoteDev proxies a member device living in another cluster domain. The
// blocking Device methods ship the operation to the member's domain with
// Domain.Call — the calling process pays one link latency each way, and
// the epoch barrier makes the member's buffer/error writes visible on
// return. PowerFail ships as a one-way message (a cut propagating down a
// link). Geometry accessors read immutable configuration directly.
//
// remoteDev deliberately does not implement storage.MediaFaulter: fault
// injection mutates member state synchronously, which only the member's
// own domain may do.
type remoteDev struct {
	front *sim.Domain
	dom   *sim.Domain
	dev   storage.Device
}

// PageSize returns the member's mapping unit (immutable geometry).
func (r *remoteDev) PageSize() int { return r.dev.PageSize() }

// Pages returns the member's capacity (immutable geometry).
func (r *remoteDev) Pages() int64 { return r.dev.Pages() }

// detach rebuilds the request without the caller's span trace: a trace is
// confined to its domain, so the member records into its own registry only.
// Op and origin survive, keeping member-side traffic attribution intact.
func detach(req iotrace.Req, lpn storage.LPN, n int) iotrace.Req {
	return iotrace.Req{Op: req.Op, Origin: req.Origin, LPN: uint64(lpn), N: n}
}

// Read ships a read to the member's domain and blocks for the round trip.
func (r *remoteDev) Read(p *sim.Proc, req iotrace.Req, lpn storage.LPN, n int, buf []byte) (err error) {
	req = detach(req, lpn, n)
	r.front.Call(p, r.dom, "span-read", func(q *sim.Proc) {
		err = r.dev.Read(q, req, lpn, n, buf)
	})
	return err
}

// Write ships a write to the member's domain and blocks for the round trip.
func (r *remoteDev) Write(p *sim.Proc, req iotrace.Req, lpn storage.LPN, n int, data []byte) (err error) {
	req = detach(req, lpn, n)
	r.front.Call(p, r.dom, "span-write", func(q *sim.Proc) {
		err = r.dev.Write(q, req, lpn, n, data)
	})
	return err
}

// Flush ships a flush-cache command to the member's domain and blocks
// until the member's drain completes.
func (r *remoteDev) Flush(p *sim.Proc, req iotrace.Req) (err error) {
	req = detach(req, 0, 0)
	r.front.Call(p, r.dom, "span-flush", func(q *sim.Proc) {
		err = r.dev.Flush(q, req)
	})
	return err
}

// Stats returns the member's counters. Read them only while the cluster is
// idle (between or after runs) — they live in the member's domain.
func (r *remoteDev) Stats() *storage.Stats { return r.dev.Stats() }

// Registry returns the member's metrics registry; same idle-only rule as
// Stats.
func (r *remoteDev) Registry() *iotrace.Registry { return r.dev.Registry() }

// PowerFail propagates the cut to the member's domain as a message: the
// member loses power one link latency after the span does, FIFO-ordered
// with commands already sent down the same link.
func (r *remoteDev) PowerFail() {
	pc, ok := r.dev.(storage.PowerCycler)
	if !ok {
		return
	}
	r.front.Send(r.dom, pc.PowerFail)
}

// Reboot runs the member's firmware recovery in its own domain, blocking
// the calling process for the round trip.
func (r *remoteDev) Reboot(p *sim.Proc) (err error) {
	pc, ok := r.dev.(storage.PowerCycler)
	if !ok {
		return nil
	}
	r.front.Call(p, r.dom, "span-reboot", func(q *sim.Proc) {
		err = pc.Reboot(q)
	})
	return err
}

// PreloadPages bulk-loads page images instantly. Preloading is a setup
// operation: call it only while the cluster is idle, like Stats.
func (r *remoteDev) PreloadPages(lpn storage.LPN, n int64, data []byte) error {
	pl, ok := r.dev.(preloader)
	if !ok {
		return fmt.Errorf("vol: remote member does not support preloading")
	}
	return pl.PreloadPages(lpn, n, data)
}

// SetWriteCache forwards the cache toggle (setup-time, cluster idle).
func (r *remoteDev) SetWriteCache(on bool) {
	if wc, ok := r.dev.(writeCacher); ok {
		wc.SetWriteCache(on)
	}
}
