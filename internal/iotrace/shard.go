package iotrace

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"slices"
	"strconv"
	"time"
)

// ShardRec is one device event captured in a cluster domain, stamped with
// the domain id and a per-domain capture sequence. The triple
// (At, Domain, Seq) is a total order: events at one virtual instant are
// reported by ascending domain id, and within a domain in emission order.
type ShardRec struct {
	At     time.Duration
	Domain int
	Seq    uint64
	Kind   EventKind
}

// ShardRecorder collects device event streams from registries living in
// different cluster domains and merges them into one deterministic report.
// Each domain appends only to its own stream, so recording is safe under
// the cluster's parallel workers without locks; Merged and Digest must only
// be called while the cluster is idle (between or after runs).
//
// The merged order — (virtual time, domain id, per-domain seq) — depends
// only on the simulated schedule, never on how worker threads interleaved,
// so a digest taken at 1 worker is byte-identical to one taken at N.
type ShardRecorder struct {
	streams []shardStream
}

// shardStream is one domain's records in capture order. A domain's clock
// never runs backwards, so the stream is normally already in (At, Seq)
// order and the merge reads it as it stands; unsorted notes the exception.
type shardStream struct {
	recs     []ShardRec
	unsorted bool // a record was captured with an earlier At than its predecessor
}

// NewShardRecorder returns a recorder for the given number of domains.
func NewShardRecorder(domains int) *ShardRecorder {
	return &ShardRecorder{streams: make([]shardStream, domains)}
}

// Attach installs the recorder as reg's event observer, tagging every
// captured event with the given domain id. Multiple registries may share a
// domain; their events interleave in emission order, which the engine's
// dispatch order makes deterministic.
func (r *ShardRecorder) Attach(domain int, reg *Registry) {
	s := &r.streams[domain]
	reg.SetEventFn(func(kind EventKind, at time.Duration) {
		n := len(s.recs)
		if n > 0 && at < s.recs[n-1].At {
			s.unsorted = true
		}
		s.recs = append(s.recs, ShardRec{At: at, Domain: domain, Seq: uint64(n), Kind: kind})
	})
}

// Events returns the total number of captured events across all domains.
func (r *ShardRecorder) Events() int {
	n := 0
	for i := range r.streams {
		n += len(r.streams[i].recs)
	}
	return n
}

// each calls fn on every captured record in (At, Domain, Seq) order: a
// k-way merge over the per-domain streams, which copies nothing.
func (r *ShardRecorder) each(fn func(rec *ShardRec)) {
	for i := range r.streams {
		if s := &r.streams[i]; s.unsorted {
			slices.SortFunc(s.recs, func(a, b ShardRec) int {
				return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Seq, b.Seq))
			})
			s.unsorted = false
		}
	}
	heads := make([]int, len(r.streams)) // next unread record per stream
	for {
		// Streams are indexed by domain id, so taking the first of equal
		// instants breaks the tie the way the order requires.
		best := -1
		var at time.Duration
		for d := range r.streams {
			if recs := r.streams[d].recs; heads[d] < len(recs) && (best < 0 || recs[heads[d]].At < at) {
				best, at = d, recs[heads[d]].At
			}
		}
		if best < 0 {
			return
		}
		fn(&r.streams[best].recs[heads[best]])
		heads[best]++
	}
}

// Merged returns all captured events in (At, Domain, Seq) order.
func (r *ShardRecorder) Merged() []ShardRec {
	all := make([]ShardRec, 0, r.Events())
	r.each(func(rec *ShardRec) { all = append(all, *rec) })
	return all
}

// Digest returns a SHA-256 over the merged event stream: the schedule
// fingerprint used by the worker-sweep equality tests. The hashed text is
// one "domain seq kind at\n" line per record, streamed through a scratch
// buffer so a long run is never held as one string.
func (r *ShardRecorder) Digest() string {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	r.each(func(rec *ShardRec) {
		if len(buf) > cap(buf)-128 { // a line is at most 76 bytes
			h.Write(buf)
			buf = buf[:0]
		}
		buf = strconv.AppendInt(buf, int64(rec.Domain), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, rec.Seq, 10)
		buf = append(buf, ' ')
		buf = append(buf, rec.Kind.String()...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(rec.At), 10)
		buf = append(buf, '\n')
	})
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// SumStats returns the field-wise sum of the registries' cumulative
// counters: one report for a device array that spans domains. Stats is all
// int64 counters; the field walk is in declaration order, so the result is
// deterministic (and new counters are picked up automatically).
func SumStats(regs ...*Registry) Stats {
	var total Stats
	tv := reflect.ValueOf(&total).Elem()
	for _, reg := range regs {
		sv := reflect.ValueOf(reg.Stats()).Elem()
		for i := 0; i < sv.NumField(); i++ {
			tv.Field(i).SetInt(tv.Field(i).Int() + sv.Field(i).Int())
		}
	}
	return total
}
