// Package iotrace provides request-scoped I/O tracing and the unified
// metrics registry shared by every simulated device in this repository.
//
// A Req is the context of one host I/O command (or one background firmware
// activity such as a cache write-back): its operation kind, the LPN range it
// covers, the origin of the data (redo log, double-write buffer, data page,
// journal, ...) and — when tracing is enabled — an ordered list of spans
// recorded in virtual time as the request descends through the stack
// (host queue, link, firmware, device cache, flush drain, FTL, GC, NAND).
//
// Tracing is designed around two hard requirements:
//
//   - Zero allocation when disabled. Req is a small value type; with no
//     trace attached, Begin/End/Finish are no-ops that never touch the heap.
//   - Determinism. Recording a span never interacts with the simulation
//     engine (no sleeps, no resource acquisition, no goroutines), so the
//     same seed produces bit-identical simulation results with tracing on
//     or off.
//
// Spans nest strictly (LIFO begin/end per request) and the registry stores
// each span's *exclusive* time — its duration minus the time spent in child
// spans — so a per-layer breakdown is additive: the layer columns of
// `repro -run breakdown` sum to (approximately) the end-to-end latency.
package iotrace

import (
	"time"

	"durassd/internal/sim"
)

// Op is the kind of request being traced.
type Op uint8

// Request kinds.
const (
	OpRead      Op = iota // host read command
	OpWrite               // host write command
	OpFlush               // host flush-cache command
	OpWriteback           // background cache write-back (flusher, HDD drain)
	OpGC                  // background garbage collection
	OpRecovery            // reboot-time device recovery
	OpScrub               // background media scrub patrol
	NumOps
)

var opNames = [NumOps]string{"read", "write", "flush", "writeback", "gc", "recovery", "scrub"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// Origin tags which database mechanism issued a request — the axis the
// paper's endurance and write-amplification claims are stated along
// (how much of the NAND traffic is the redundant-write scheme?).
type Origin uint8

// Request origins.
const (
	OriginUnknown     Origin = iota
	OriginData               // database data pages
	OriginRedo               // redo / write-ahead log (incl. full-page images)
	OriginDoubleWrite        // InnoDB double-write buffer
	OriginJournal            // append-only journal (Couch)
	OriginMeta               // filesystem metadata (fsync journal commit)
	NumOrigins
)

var originNames = [NumOrigins]string{"unknown", "data", "redo", "double-write", "journal", "meta"}

func (o Origin) String() string {
	if int(o) < len(originNames) {
		return originNames[o]
	}
	return "origin?"
}

// Layer identifies where in the stack a span's time was spent.
type Layer uint8

// Stack layers, host side first.
const (
	LayerHostQueue  Layer = iota // NCQ slot / non-queued-command / arm-queue wait
	LayerLink                    // host link occupancy (protocol + data transfer)
	LayerFirmware                // per-command firmware handling
	LayerCache                   // device write cache: staging ack, hits, admission stalls
	LayerFlushDrain              // flush-cache command: drain wait + completion ack
	LayerFTL                     // mapping, journal, program orchestration
	LayerGC                      // garbage collection (victim scan, relocation overhead)
	LayerNAND                    // NAND plane/channel occupancy (HDD: platter access)
	NumLayers
)

var layerNames = [NumLayers]string{
	"host queue", "link", "firmware", "device cache", "flush drain", "FTL", "GC", "NAND",
}

func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return "layer?"
}

// Req is the context of one request. It is passed by value through the
// device stack; the zero value is a valid untraced, origin-unknown request.
type Req struct {
	Op     Op
	Origin Origin
	LPN    uint64 // first logical page of the range
	N      int    // pages in the range
	tr     *trace
}

// Span is a handle to an open span. The zero value (returned for untraced
// requests) is a no-op.
type Span struct {
	tr  *trace
	idx int
}

// SpanRec is one recorded span of a finished request.
type SpanRec struct {
	Layer Layer
	Depth int           // nesting depth (0 = top level)
	Start time.Duration // virtual time at Begin
	End   time.Duration // virtual time at End
	Excl  time.Duration // duration minus time spent in child spans
}

// trace is the mutable per-request recording state, allocated only when the
// registry has tracing enabled.
type trace struct {
	reg   *Registry
	start time.Duration
	spans []SpanRec
	stack []int // indices into spans of currently-open spans
	child []time.Duration
	bad   bool // begin/end mis-nesting detected
}

// Begin opens a span for layer l at the current virtual time. Every Begin
// must be matched by an End before the enclosing span (or the request)
// ends; spans are strictly nested.
func (r Req) Begin(p *sim.Proc, l Layer) Span {
	t := r.tr
	if t == nil {
		return Span{}
	}
	idx := len(t.spans)
	t.spans = append(t.spans, SpanRec{Layer: l, Depth: len(t.stack), Start: p.Now()})
	t.stack = append(t.stack, idx)
	t.child = append(t.child, 0)
	return Span{tr: t, idx: idx}
}

// End closes the span at the current virtual time. Ending a span that is
// not the innermost open one flags the trace as mis-nested (reported by
// the registry's span sink; the property tests assert it never happens).
func (s Span) End(p *sim.Proc) {
	t := s.tr
	if t == nil {
		return
	}
	top := len(t.stack) - 1
	if top < 0 || t.stack[top] != s.idx {
		t.bad = true
		return
	}
	now := p.Now()
	rec := &t.spans[s.idx]
	rec.End = now
	dur := now - rec.Start
	rec.Excl = dur - t.child[top]
	t.stack = t.stack[:top]
	t.child = t.child[:top]
	if top > 0 {
		t.child[top-1] += dur
	}
}

// Finish completes the request: any still-open spans are closed at the
// current instant (innermost first) and the recorded spans are folded into
// the registry's per-layer and per-op latency histograms.
func (r Req) Finish(p *sim.Proc) {
	t := r.tr
	if t == nil {
		return
	}
	for len(t.stack) > 0 {
		Span{tr: t, idx: t.stack[len(t.stack)-1]}.End(p)
	}
	t.reg.finish(r, p.Now()-t.start)
}
