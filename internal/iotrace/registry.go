package iotrace

import (
	"time"

	"durassd/internal/sim"
	"durassd/internal/stats"
)

// Stats holds per-device counters. All fields are cumulative since device
// creation (they survive power cycles, like a SMART log). The storage
// package aliases this type as storage.Stats, so existing field accesses
// compile unchanged; new code should reach it through a Registry.
type Stats struct {
	ReadCommands  int64 // host read commands completed
	WriteCommands int64 // host write commands completed
	FlushCommands int64 // host flush-cache commands completed
	PagesRead     int64 // host pages transferred in
	PagesWritten  int64 // host pages transferred out

	NANDReads    int64 // physical page reads (incl. GC)
	NANDPrograms int64 // physical page programs (incl. GC, dumps)
	NANDErases   int64 // block erases
	GCPrograms   int64 // programs caused by garbage collection

	CacheHits     int64 // host reads served from the device cache
	CacheEvicts   int64 // cache frames written back
	CacheOverlaps int64 // stale cached copies discarded on overwrite

	DumpPages     int64 // pages flushed to the dump area on power failure
	TornPages     int64 // pages torn by power failure mid-program
	LostPages     int64 // acknowledged pages lost to power failure
	Recoveries    int64 // successful reboot recoveries
	MapFlushPages int64 // mapping-table journal pages programmed

	DumpRetries       int64 // dump programs retried after a torn dump page
	InterruptedErases int64 // block erases interrupted by power failure

	CorrectedBits       int64 // media bit errors corrected by ECC across all reads
	ReadRetries         int64 // NAND read retries after an uncorrectable first attempt
	UncorrectableReads  int64 // reads still uncorrectable after all retries
	RefreshPrograms     int64 // pages rewritten because corrected bits hit the refresh threshold
	RetiredBlocks       int64 // blocks moved to the retired set (wear-out or media failure)
	ScrubPasses         int64 // completed scrubber patrol passes
	ScrubReads          int64 // pages patrolled by the scrubber
	DegradedTransitions int64 // device transitions to read-only (reserve pool exhausted)
	ReadRepairs         int64 // mirror pages repaired from a healthy replica on read
}

// WriteAmplification returns NAND pages programmed per host page written.
// It returns 0 when no host pages have been written.
func (s *Stats) WriteAmplification() float64 {
	if s.PagesWritten == 0 {
		return 0
	}
	return float64(s.NANDPrograms) / float64(s.PagesWritten)
}

// OriginCounters accumulates per-origin traffic so write amplification can
// be attributed to the database mechanism that caused it.
type OriginCounters struct {
	PagesWritten int64 // host pages written with this origin
	PagesRead    int64 // host pages read with this origin
	NANDSlots    int64 // NAND slots programmed on behalf of this origin
	GCSlots      int64 // of NANDSlots, those relocated by garbage collection
}

// WriteAmplification returns NAND slots programmed per host page written
// for this origin, or 0 when the origin wrote nothing.
func (c *OriginCounters) WriteAmplification() float64 {
	if c.PagesWritten == 0 {
		return 0
	}
	return float64(c.NANDSlots) / float64(c.PagesWritten)
}

// Registry is the unified per-device metrics store: the legacy cumulative
// counters (Stats), per-origin traffic counters, and per-layer and per-op
// latency histograms.
//
// A Registry is confined to its device's simulation; the engine runs one
// process at a time, so no locking is needed (the race detector in CI
// verifies this).
type Registry struct {
	s       Stats
	tracing bool
	origin  [NumOrigins]OriginCounters
	layer   [NumLayers]stats.Hist
	op      [NumOps]stats.Hist
	sink    func(Req, []SpanRec)
	ev      EventFn
}

// NewRegistry returns an empty registry with tracing disabled.
func NewRegistry() *Registry {
	return &Registry{}
}

// Stats returns the registry's live legacy counters. Callers may hold the
// pointer across operations; it always reflects current values.
func (r *Registry) Stats() *Stats { return &r.s }

// EnableTracing switches span recording on or off. Requests created while
// tracing is off stay untraced for their whole lifetime.
func (r *Registry) EnableTracing(on bool) { r.tracing = on }

// SetSpanSink installs a callback invoked with every finished traced
// request and its spans (property tests use this to check nesting).
func (r *Registry) SetSpanSink(fn func(Req, []SpanRec)) { r.sink = fn }

// NewReq creates a request context. With tracing disabled this allocates
// nothing and never touches p, so a nil proc is acceptable on that path.
func (r *Registry) NewReq(p *sim.Proc, op Op, origin Origin, lpn uint64, n int) Req {
	q := Req{Op: op, Origin: origin, LPN: lpn, N: n}
	if r != nil && r.tracing {
		q.tr = &trace{reg: r, start: p.Now()} //simlint:allow hotalloc tracing is on: a traced pass pays one span record per request, an untraced one (every timed run) never gets here
	}
	return q
}

// finish folds a completed traced request into the histograms.
func (r *Registry) finish(q Req, total time.Duration) {
	if q.Op < NumOps {
		r.op[q.Op].Record(total)
	}
	for _, sp := range q.tr.spans {
		if sp.Layer < NumLayers {
			r.layer[sp.Layer].Record(sp.Excl)
		}
	}
	if r.sink != nil {
		r.sink(q, q.tr.spans)
	}
}

// LayerLatency returns the histogram of exclusive time spent in layer l
// across all finished traced requests.
func (r *Registry) LayerLatency(l Layer) *stats.Hist { return &r.layer[l] }

// Origin returns the live traffic counters for origin o.
func (r *Registry) Origin(o Origin) *OriginCounters { return &r.origin[o] }

// AddOriginWrite credits n host pages written to origin o.
func (r *Registry) AddOriginWrite(o Origin, n int) {
	r.origin[o].PagesWritten += int64(n)
}

// AddOriginRead credits n host pages read to origin o.
func (r *Registry) AddOriginRead(o Origin, n int) {
	r.origin[o].PagesRead += int64(n)
}

// AddOriginNAND credits n NAND slot programs to origin o.
func (r *Registry) AddOriginNAND(o Origin, n int) {
	r.origin[o].NANDSlots += int64(n)
}

// AddOriginGC credits n GC-relocated slot programs to origin o (also
// counted in NANDSlots by the caller).
func (r *Registry) AddOriginGC(o Origin, n int) {
	r.origin[o].GCSlots += int64(n)
}
