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

// TestShardRecorderDigestMatchesFormatted pins the streamed digest to the
// text it replaced: every record of the merged order printed with
// "%d %d %s %d\n" into one string, hashed whole. The fixture has four
// domains (one empty), long runs from one domain, equal instants across
// domains and within one, and one domain that captures out of time order.
func TestShardRecorderDigestMatchesFormatted(t *testing.T) {
	r := NewShardRecorder(4)
	regs := []*Registry{NewRegistry(), NewRegistry(), NewRegistry(), NewRegistry()}
	for i, reg := range regs {
		r.Attach(i, reg)
	}
	kinds := []EventKind{EvWriteAck, EvFlushStart, EvFlushEnd, EvProgram, EvErase, EvRetireStart, EvRetireEnd, EventKind(99)}
	for i := 0; i < 3000; i++ {
		at := time.Duration(i/3) * time.Microsecond // three records an instant
		regs[0].Emit(kinds[i%len(kinds)], at)
		if i%2 == 0 {
			regs[3].Emit(kinds[(i/2)%len(kinds)], at) // ties with domain 0
		}
		if i%7 == 0 {
			// Domain 1 runs backwards every seventh record.
			regs[1].Emit(EvProgram, time.Duration(1000-i/7)*time.Microsecond)
		}
	}
	regs[3].Emit(EvErase, 1<<62) // widest timestamp the line can carry

	// The old implementation, verbatim: copy, sort.Slice, Fprintf, Sum256.
	var all []ShardRec
	for _, s := range r.streams {
		all = append(all, s.recs...)
	}
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

	if got := r.Digest(); got != want {
		t.Fatalf("streamed digest %s, formatted digest %s", got, want)
	}
	merged := r.Merged()
	if len(merged) != len(all) {
		t.Fatalf("Merged returned %d records, want %d", len(merged), len(all))
	}
	for i := range all {
		if merged[i] != all[i] {
			t.Fatalf("Merged[%d] = %+v, want %+v", i, merged[i], all[i])
		}
	}
	if got := r.Digest(); got != want {
		t.Fatalf("second digest %s differs from the first %s", got, want)
	}
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
