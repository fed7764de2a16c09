package iotrace

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sort"
	"strconv"
	"time"
)

// ShardRec is one device event captured in a cluster domain, as Merged
// reports it: stamped with the domain id and a per-domain capture sequence.
// The triple (At, Domain, Seq) is a total order: events at one virtual
// instant are reported by ascending domain id, and within a domain in
// emission order.
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

// shardEvent is what a stream keeps per captured event: 16 bytes. The
// domain is the stream's index and the capture sequence is the event's
// position, so neither is stored; a long run holds millions of these until
// its final digest.
type shardEvent struct {
	at   time.Duration
	kind EventKind
}

// shardStream is one domain's events in capture order. A domain's clock
// never runs backwards, so the stream is normally already in (At, Seq)
// order and the merge reads it as it stands; unsorted notes the exception.
// Sorting is the one thing that separates an event from its position, so
// seqs exists only from a stream's first sort on.
type shardStream struct {
	evs      []shardEvent
	seqs     []uint64 // seqs[i] is evs[i]'s capture sequence; nil while that is i
	unsorted bool     // an event was captured with an earlier At than its predecessor
}

// sort.Interface, ordering by (At, Seq); seqs must be materialised.
func (s *shardStream) Len() int { return len(s.evs) }
func (s *shardStream) Less(i, j int) bool {
	if a, b := s.evs[i].at, s.evs[j].at; a != b {
		return a < b
	}
	return s.seqs[i] < s.seqs[j]
}
func (s *shardStream) Swap(i, j int) {
	s.evs[i], s.evs[j] = s.evs[j], s.evs[i]
	s.seqs[i], s.seqs[j] = s.seqs[j], s.seqs[i]
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
		n := len(s.evs)
		if n > 0 && at < s.evs[n-1].at {
			s.unsorted = true
		}
		s.evs = append(s.evs, shardEvent{at: at, kind: kind})
		if s.seqs != nil {
			s.seqs = append(s.seqs, uint64(n))
		}
	})
}

// Events returns the total number of captured events across all domains.
func (r *ShardRecorder) Events() int {
	n := 0
	for i := range r.streams {
		n += len(r.streams[i].evs)
	}
	return n
}

// each calls fn on every captured record in (At, Domain, Seq) order: a
// k-way merge over the per-domain streams. Records are built on the way out
// and passed by value, so nothing is copied up front and nothing escapes.
func (r *ShardRecorder) each(fn func(rec ShardRec)) {
	for i := range r.streams {
		if s := &r.streams[i]; s.unsorted {
			if s.seqs == nil {
				s.seqs = make([]uint64, len(s.evs))
				for j := range s.seqs {
					s.seqs[j] = uint64(j)
				}
			}
			sort.Sort(s)
			s.unsorted = false
		}
	}
	heads := make([]int, len(r.streams)) // next unread event per stream
	for {
		// Streams are indexed by domain id, so taking the first of equal
		// instants breaks the tie the way the order requires.
		best := -1
		var at time.Duration
		for d := range r.streams {
			if evs := r.streams[d].evs; heads[d] < len(evs) && (best < 0 || evs[heads[d]].at < at) {
				best, at = d, evs[heads[d]].at
			}
		}
		if best < 0 {
			return
		}
		s, i := &r.streams[best], heads[best]
		seq := uint64(i)
		if s.seqs != nil {
			seq = s.seqs[i]
		}
		fn(ShardRec{At: at, Domain: best, Seq: seq, Kind: s.evs[i].kind})
		heads[best]++
	}
}

// Merged returns all captured events in (At, Domain, Seq) order.
func (r *ShardRecorder) Merged() []ShardRec {
	all := make([]ShardRec, 0, r.Events())
	r.each(func(rec ShardRec) { all = append(all, rec) })
	return all
}

// Digest returns a SHA-256 over the merged event stream: the schedule
// fingerprint used by the worker-sweep equality tests. The hashed text is
// one "domain seq kind at\n" line per record, streamed through a scratch
// buffer so a long run is never held as one string.
func (r *ShardRecorder) Digest() string {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	r.each(func(rec ShardRec) {
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
