package iotrace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
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
// of every event it emitted: the form the recorder used to store and the
// reference its compact streams are checked against.
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

// TestShardRecorderDigestMatchesFormatted pins the compact streams — 16
// bytes an event, the domain implied by the stream and the sequence by the
// position — to the full records and the formatted text they replaced. The
// fixture has four domains (one empty), long runs from one domain, equal
// instants across domains and within one, an unknown kind and the widest
// timestamp a line can carry. It is checked three ways: with every stream
// in time order (no sequence is ever materialised), with one domain that
// captures out of time order, and with more events, in and out of order,
// appended after a digest has sorted that domain.
func TestShardRecorderDigestMatchesFormatted(t *testing.T) {
	kinds := []EventKind{EvWriteAck, EvFlushStart, EvFlushEnd, EvProgram, EvErase, EvRetireStart, EvRetireEnd, EventKind(99)}
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
		fill(r, 0, 3000, false)
		r.emit(3, EvErase, 1<<62)
		r.check(t, "in time order")
		for d := range r.rec.streams {
			if r.rec.streams[d].seqs != nil {
				t.Errorf("domain %d never captured out of order but materialised its sequence", d)
			}
		}
	})

	t.Run("unsorted and appended to", func(t *testing.T) {
		r := newRefRecorder(4)
		fill(r, 0, 3000, true)
		r.check(t, "domain 1 backwards")
		if r.rec.streams[1].seqs == nil || r.rec.streams[0].seqs != nil {
			t.Errorf("want a sequence for the sorted domain 1 only")
		}
		// Domain 1 has been sorted; what it captures now must carry on from
		// its capture count, not from its position in the sorted stream.
		fill(r, 3000, 3600, false) // domain 1 resumes below its own maximum
		r.check(t, "appended in order after a digest")
		fill(r, 3600, 4200, true)
		r.emit(3, EvErase, 1<<62) // widest timestamp the line can carry
		r.check(t, "appended out of order after a digest")
	})
}

func TestSumStats(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Stats().PagesWritten = 10
	a.Stats().NANDPrograms = 25
	b.Stats().PagesWritten = 5
	b.Stats().FlushCommands = 3
	sum := SumStats(a, b)
	if sum.PagesWritten != 15 || sum.NANDPrograms != 25 || sum.FlushCommands != 3 {
		t.Fatalf("SumStats = %+v", sum)
	}
	if got := sum.WriteAmplification(); got != 25.0/15.0 {
		t.Fatalf("summed WA = %v", got)
	}
}
