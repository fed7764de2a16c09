package iotrace

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strconv"
	"time"
)

// ShardRec is one device event captured in a cluster domain, stamped with
// the domain id and a per-domain capture sequence.
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
// the cluster's parallel workers without locks; Digest must only be called
// while the cluster is idle (between or after runs).
//
// The merged order — (virtual time, domain id, per-domain seq) — depends
// only on the simulated schedule, never on how worker threads interleaved,
// so a digest taken at 1 worker is byte-identical to one taken at N.
type ShardRecorder struct {
	streams []shardStream
}

// A stream is encoded, not stored as records: a long run holds millions of
// events until its final digest. Each event is the zigzag varint of its
// instant minus the previous event's (the first is relative to zero),
// followed by its kind byte. The domain is the stream's index and the
// capture sequence the event's position, so neither is stored. A serving
// domain's device events are tens to hundreds of microseconds apart, so an
// event is typically four bytes.
const (
	chunkBytes    = 64 << 10                  // capacity of one stream chunk
	maxEventBytes = binary.MaxVarintLen64 + 1 // the widest encoded event
)

// shardStream is one domain's encoded events in capture order, appended to
// fixed-size chunks so a growing stream never copies what it holds. An
// event never straddles two chunks.
type shardStream struct {
	chunks   [][]byte      // the last one is open for appends
	n        int           // events captured
	last     time.Duration // instant of the latest event: the next delta's base
	unsorted bool          // an event was captured with an earlier At than its predecessor
}

func (s *shardStream) add(kind EventKind, at time.Duration) {
	if s.n > 0 && at < s.last {
		s.unsorted = true
	}
	c := len(s.chunks) - 1
	if c < 0 || cap(s.chunks[c])-len(s.chunks[c]) < maxEventBytes {
		s.chunks = append(s.chunks, make([]byte, 0, chunkBytes)) //simlint:allow hotalloc chunk miss: one 64 KiB chunk per ~16 k events, kept until the digest
		c++
	}
	// Durations wrap on overflow, and so does the decoder's sum, so any
	// pair of instants round-trips.
	s.chunks[c] = append(binary.AppendVarint(s.chunks[c], int64(at-s.last)), byte(kind))
	s.last = at
	s.n++
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
	reg.SetEventFn(r.streams[domain].add)
}

// mergeCursor yields one domain's records in (At, Seq) order.
type mergeCursor struct {
	rec    ShardRec // the stream's next record, valid while live
	live   bool
	sorted []ShardRec // a stream captured out of time order, decoded and stably sorted by At

	// Decoding state, in capture order.
	chunks     [][]byte
	chunk, off int
	at         time.Duration
	seq        uint64 // capture sequence of the next event
}

func (c *mergeCursor) start(domain int, s *shardStream) {
	*c = mergeCursor{rec: ShardRec{Domain: domain}, chunks: s.chunks}
	if s.unsorted {
		// The rare path: capture order is the sequence, so a stable sort by
		// instant alone yields (At, Seq) order.
		c.sorted = make([]ShardRec, s.n)
		for i := range c.sorted {
			c.sorted[i].Domain = domain
			c.decode(&c.sorted[i])
		}
		slices.SortStableFunc(c.sorted, func(a, b ShardRec) int { return cmp.Compare(a.At, b.At) })
	}
	c.advance()
}

// decode reads the stream's next event into rec's At, Seq and Kind; it
// reports false at the end of the stream.
func (c *mergeCursor) decode(rec *ShardRec) bool {
	for c.chunk < len(c.chunks) && c.off == len(c.chunks[c.chunk]) {
		c.chunk, c.off = c.chunk+1, 0
	}
	if c.chunk == len(c.chunks) {
		return false
	}
	b := c.chunks[c.chunk][c.off:]
	d, n := binary.Varint(b)
	c.at += time.Duration(d)
	c.off += n + 1
	rec.At, rec.Seq, rec.Kind = c.at, c.seq, EventKind(b[n])
	c.seq++
	return true
}

func (c *mergeCursor) advance() {
	if c.sorted == nil {
		c.live = c.decode(&c.rec)
	} else if c.live = len(c.sorted) > 0; c.live {
		c.rec, c.sorted = c.sorted[0], c.sorted[1:]
	}
}

// each calls fn on every captured record in (At, Domain, Seq) order: a
// k-way merge that decodes the per-domain streams as it goes. Records are
// built on the way out and passed by value, so nothing is held whole and
// the streams themselves are left as captured.
func (r *ShardRecorder) each(fn func(rec ShardRec)) {
	curs := make([]mergeCursor, len(r.streams))
	for d := range curs {
		curs[d].start(d, &r.streams[d])
	}
	for {
		// Cursors are indexed by domain id, so taking the first of equal
		// instants breaks the tie the way the order requires.
		best := -1
		for d := range curs {
			if c := &curs[d]; c.live && (best < 0 || c.rec.At < curs[best].rec.At) {
				best = d
			}
		}
		if best < 0 {
			return
		}
		fn(curs[best].rec)
		curs[best].advance()
	}
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
