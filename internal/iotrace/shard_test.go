package iotrace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestShardRecorderMergeOrder(t *testing.T) {
	r := NewShardRecorder(3)
	regs := []*Registry{NewRegistry(), NewRegistry(), NewRegistry()}
	for i, reg := range regs {
		r.Attach(i, reg)
	}
	// Emit out of global time order and with ties at t=10 across domains:
	// the merge must order ties by domain id, then per-domain seq.
	regs[2].Emit(EvProgram, 10*time.Microsecond)
	regs[0].Emit(EvWriteAck, 20*time.Microsecond)
	regs[1].Emit(EvFlushStart, 10*time.Microsecond)
	regs[1].Emit(EvFlushEnd, 10*time.Microsecond)
	regs[0].Emit(EvWriteAck, 5*time.Microsecond)

	got := r.Merged()
	want := []ShardRec{
		{At: 5 * time.Microsecond, Domain: 0, Seq: 1, Kind: EvWriteAck},
		{At: 10 * time.Microsecond, Domain: 1, Seq: 0, Kind: EvFlushStart},
		{At: 10 * time.Microsecond, Domain: 1, Seq: 1, Kind: EvFlushEnd},
		{At: 10 * time.Microsecond, Domain: 2, Seq: 0, Kind: EvProgram},
		{At: 20 * time.Microsecond, Domain: 0, Seq: 0, Kind: EvWriteAck},
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merged[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if r.Events() != 5 {
		t.Errorf("Events() = %d, want 5", r.Events())
	}
}

func TestShardRecorderDigestStable(t *testing.T) {
	build := func() *ShardRecorder {
		r := NewShardRecorder(2)
		a, b := NewRegistry(), NewRegistry()
		r.Attach(0, a)
		r.Attach(1, b)
		b.Emit(EvErase, 7*time.Microsecond)
		a.Emit(EvProgram, 7*time.Microsecond)
		a.Emit(EvWriteAck, 9*time.Microsecond)
		return r
	}
	if d1, d2 := build().Digest(), build().Digest(); d1 != d2 {
		t.Fatalf("digests differ for identical streams: %s vs %s", d1, d2)
	}
}

// refRecorder drives a ShardRecorder and keeps, beside it, the full record
// of every event it emitted: the reference its encoded streams are checked
// against.
type refRecorder struct {
	rec  *ShardRecorder
	regs []*Registry
	all  []ShardRec
	seq  []uint64 // next capture sequence per domain
}

func newRefRecorder(domains int) *refRecorder {
	r := &refRecorder{rec: NewShardRecorder(domains), seq: make([]uint64, domains)}
	for d := 0; d < domains; d++ {
		reg := NewRegistry()
		r.rec.Attach(d, reg)
		r.regs = append(r.regs, reg)
	}
	return r
}

func (r *refRecorder) emit(domain int, kind EventKind, at time.Duration) {
	r.regs[domain].Emit(kind, at)
	r.all = append(r.all, ShardRec{At: at, Domain: domain, Seq: r.seq[domain], Kind: kind})
	r.seq[domain]++
}

// check compares Merged and Digest with the old implementation, verbatim,
// run over the full records: copy, sort.Slice by (At, Domain, Seq), every
// record printed with "%d %d %s %d\n" into one string, hashed whole.
func (r *refRecorder) check(t *testing.T, when string) {
	t.Helper()
	all := append([]ShardRec(nil), r.all...)
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Domain != b.Domain {
			return a.Domain < b.Domain
		}
		return a.Seq < b.Seq
	})
	var b strings.Builder
	for _, rec := range all {
		fmt.Fprintf(&b, "%d %d %s %d\n", rec.Domain, rec.Seq, rec.Kind, int64(rec.At))
	}
	sum := sha256.Sum256([]byte(b.String()))
	want := hex.EncodeToString(sum[:])

	if got := r.rec.Digest(); got != want {
		t.Fatalf("%s: streamed digest %s, formatted digest %s", when, got, want)
	}
	merged := r.rec.Merged()
	if len(merged) != len(all) || r.rec.Events() != len(all) {
		t.Fatalf("%s: Merged returned %d records, Events %d, want %d", when, len(merged), r.rec.Events(), len(all))
	}
	for i := range all {
		if merged[i] != all[i] {
			t.Fatalf("%s: Merged[%d] = %+v, want %+v", when, i, merged[i], all[i])
		}
	}
	if got := r.rec.Digest(); got != want {
		t.Fatalf("%s: second digest %s differs from the first %s", when, got, want)
	}
}

// TestShardRecorderDigestMatchesFormatted pins the encoded streams — a
// zigzag varint delta of the instant and a kind byte an event, in 64 KiB
// chunks, the domain implied by the stream and the sequence by the
// position — to the full records and the formatted text the digest hashes.
// The fixture has four domains (one empty), every event kind and two
// unknown ones, long runs from one domain, equal instants across domains
// and within one, and enough events to span several chunks. It is checked
// with every stream in time order, with one domain that captures out of
// time order, with more events, in and out of order, appended after a
// digest, and with deltas up to 1<<62 and past the ends of the duration
// range in both directions.
func TestShardRecorderDigestMatchesFormatted(t *testing.T) {
	var kinds []EventKind
	for k := EventKind(0); k < NumEvents; k++ {
		kinds = append(kinds, k)
	}
	kinds = append(kinds, EventKind(99), EventKind(255))
	fill := func(r *refRecorder, from, to int, backwards bool) {
		for i := from; i < to; i++ {
			at := time.Duration(i/3) * time.Microsecond // three records an instant
			r.emit(0, kinds[i%len(kinds)], at)
			if i%2 == 0 {
				r.emit(3, kinds[(i/2)%len(kinds)], at) // ties with domain 0
			}
			if i%7 == 0 {
				d1 := time.Duration(i/7) * time.Microsecond
				if backwards {
					// Domain 1 runs backwards every seventh record.
					d1 = time.Duration(1000-i/7) * time.Microsecond
				}
				r.emit(1, EvProgram, d1)
			}
		}
	}

	t.Run("sorted", func(t *testing.T) {
		r := newRefRecorder(4)
		fill(r, 0, 60000, false) // domain 0 fills more than one chunk
		r.emit(3, EvErase, 1<<62)
		r.check(t, "in time order")
		if n := len(r.rec.streams[0].chunks); n < 2 {
			t.Fatalf("domain 0 used %d chunk(s); the fixture must span several", n)
		}
	})

	t.Run("unsorted and appended to", func(t *testing.T) {
		r := newRefRecorder(4)
		fill(r, 0, 3000, true)
		r.check(t, "domain 1 backwards")
		// A digest leaves the streams as captured: what domain 1 captures
		// now must carry on from its capture count.
		fill(r, 3000, 3600, false) // domain 1 resumes below its own maximum
		r.check(t, "appended in order after a digest")
		fill(r, 3600, 4200, true)
		r.emit(3, EvErase, 1<<62) // widest timestamp the line can carry
		r.check(t, "appended out of order after a digest")
	})

	t.Run("wide deltas", func(t *testing.T) {
		r := newRefRecorder(3)
		for _, at := range []time.Duration{0, 1 << 62, 1, 1 << 62, 1<<62 - 1, 0} {
			r.emit(0, EvWriteAck, at)
			r.emit(2, EvProgram, at)
		}
		r.check(t, "deltas of ±1<<62")
		for _, at := range []time.Duration{math.MaxInt64, math.MinInt64, math.MaxInt64, 0} {
			r.emit(1, EvFlushEnd, at) // deltas that overflow a duration
		}
		r.check(t, "deltas past the duration range")
	})
}

// serveLikeEvents emits n events into reg, about 200 µs apart in virtual
// time as a serving domain's device events are, with seeded kinds.
func serveLikeEvents(reg *Registry, rng *rand.Rand, at *time.Duration, n int) {
	for range n {
		*at += time.Duration(100+rng.Intn(200)) * time.Microsecond
		reg.Emit(EventKind(rng.Intn(int(NumEvents))), *at)
	}
}

// TestShardRecorderBytesPerEvent bounds what a long run keeps until its
// digest: a million serve-like events retain at most 6 bytes each, chunks
// and the chunk list included.
func TestShardRecorderBytesPerEvent(t *testing.T) {
	const events = 1 << 20
	r := NewShardRecorder(1)
	reg := NewRegistry()
	r.Attach(0, reg)
	var at time.Duration
	serveLikeEvents(reg, rand.New(rand.NewSource(1)), &at, events)

	s := &r.streams[0]
	retained := cap(s.chunks) * int(unsafe.Sizeof(s.chunks[0]))
	for _, c := range s.chunks {
		retained += cap(c)
	}
	if perEvent := float64(retained) / events; perEvent > 6 {
		t.Fatalf("%d events retain %d B in %d chunks: %.2f B an event, want <= 6", events, retained, len(s.chunks), perEvent)
	}
	if r.Events() != events {
		t.Fatalf("Events() = %d, want %d", r.Events(), events)
	}
}

// TestShardRecorderAllocs checks that Attach's observer allocates only when
// a chunk fills: nothing while the open chunk has room, and one chunk (plus
// at most one regrowth of the chunk list) per chunk filled.
func TestShardRecorderAllocs(t *testing.T) {
	// A serve-like event encodes to 4 bytes, so a chunk holds about 16 k.
	const perChunk = chunkBytes / 4
	const chunks = 8
	// fill counts the allocations of filling chunks chunks on a fresh
	// recorder whose first chunk is half full, so every call measures the
	// same 8 chunk opens and the same one regrowth of the chunk list.
	fill := func() float64 {
		r := NewShardRecorder(1)
		reg := NewRegistry()
		r.Attach(0, reg)
		rng := rand.New(rand.NewSource(1))
		var at time.Duration
		if allocs := testing.AllocsPerRun(perChunk/2, func() { serveLikeEvents(reg, rng, &at, 1) }); allocs != 0 {
			t.Fatalf("an event that fits the open chunk allocates %v times, want 0", allocs)
		}
		return testing.AllocsPerRun(1, func() { serveLikeEvents(reg, rng, &at, chunks*perChunk) })
	}
	// AllocsPerRun counts every malloc in the process, so one made on
	// another goroutine can land in a measurement. The fill's own count is
	// fixed: it exceeds the bound only if all three measurements do.
	fewest := fill()
	for range 2 {
		fewest = min(fewest, fill())
	}
	if fewest > chunks+1 {
		t.Fatalf("filling %d chunks allocates %v times, want at most %d", chunks, fewest, chunks+1)
	}
}

// Events returns the total number of captured events across all domains.
func (r *ShardRecorder) Events() int {
	n := 0
	for i := range r.streams {
		n += r.streams[i].n
	}
	return n
}

// Merged returns all captured events in (At, Domain, Seq) order.
func (r *ShardRecorder) Merged() []ShardRec {
	all := make([]ShardRec, 0, r.Events())
	r.each(func(rec ShardRec) { all = append(all, rec) })
	return all
}
