// Package wal implements a redo write-ahead log with group commit over a
// host file, the durability mechanism both database engines in the paper's
// evaluation rely on ("the database log tail was set to flush by each
// committing transaction", §4.2).
//
// Records are appended to an in-memory log tail; Commit forces the tail up
// to the transaction's LSN using fdatasync semantics (a device flush only
// when the filesystem has write barriers on). Concurrent committers share
// one physical flush (group commit).
package wal

import (
	"encoding/binary"
	"fmt"

	"durassd/internal/host"
	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func getU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }

func checksum(b []byte) uint32 { return storage.Checksum(b) }

// Config tunes the log.
type Config struct {
	// FilePages is the size of each log file in device pages (the paper
	// uses three 4 GB files). The log wraps across files round-robin.
	FilePages int64
	// Files is the number of log files.
	Files int
	// RealBytes stores real, checksummed record blocks so crash tests can
	// replay redo after a power failure. Each record occupies one log
	// block in this mode.
	RealBytes bool
}

// Record is one redo record in RealBytes mode: "page reached version".
// Page images are reproducible from (Page, Version); FullImage marks
// records that carried the entire page (PostgreSQL full-page writes),
// which are the only records that can repair a torn page — ordinary delta
// records need an intact base.
type Record struct {
	LSN       uint64
	Page      uint64
	Version   uint64
	FullImage bool
}

// Log is a redo log with group commit.
type Log struct {
	eng   *sim.Engine
	cfg   Config
	files []*host.File

	nextLSN    uint64
	durableLSN uint64
	tailBytes  int64 // unflushed bytes buffered in the log tail
	writePos   int64 // next page offset in the current file
	curFile    int
	pending    []Record // unflushed records (RealBytes mode)
	spare      []Record // the other pending buffer, swapped in while a flush writes one
	block      []byte   // the log block a flush encodes each record into

	flushing  bool
	flushDone *sim.Queue

	// Stats
	Flushes      int64
	GroupedCount int64 // commits that piggybacked on another flush
	Records      int64
	BytesLogged  int64
}

// New creates the log files on fs and returns the log.
func New(eng *sim.Engine, fs *host.FS, cfg Config) (*Log, error) {
	if cfg.Files <= 0 || cfg.FilePages <= 0 {
		return nil, fmt.Errorf("wal: Files and FilePages must be positive")
	}
	l := &Log{eng: eng, cfg: cfg, flushDone: sim.NewQueue(eng)}
	for i := 0; i < cfg.Files; i++ {
		f, err := fs.Create(fmt.Sprintf("redo-%d", i), cfg.FilePages)
		if err != nil {
			return nil, err
		}
		f.SetOrigin(iotrace.OriginRedo)
		l.files = append(l.files, f)
	}
	return l, nil
}

// Reopen attaches to existing log files after a crash (for ReadAll-based
// recovery followed by fresh appends; the write position restarts, which is
// fine for crash tests that recover before appending).
func Reopen(eng *sim.Engine, fs *host.FS, cfg Config) (*Log, error) {
	if cfg.Files <= 0 {
		return nil, fmt.Errorf("wal: Files must be positive")
	}
	l := &Log{eng: eng, cfg: cfg, flushDone: sim.NewQueue(eng)}
	for i := 0; i < cfg.Files; i++ {
		f, err := fs.Open(fmt.Sprintf("redo-%d", i))
		if err != nil {
			return nil, err
		}
		l.files = append(l.files, f)
	}
	return l, nil
}

// Append adds a redo record of the given payload size and returns its LSN.
// The record sits in the volatile log tail until a flush reaches it.
//
//simlint:hotpath
func (l *Log) Append(sizeBytes int) uint64 {
	l.nextLSN++
	l.tailBytes += int64(sizeBytes)
	l.Records++
	l.BytesLogged += int64(sizeBytes)
	return l.nextLSN
}

// AppendRecord adds a "page reached version" delta redo record (RealBytes
// mode).
//
//simlint:hotpath
func (l *Log) AppendRecord(page, version uint64, sizeBytes int) uint64 {
	lsn := l.Append(sizeBytes)
	if l.cfg.RealBytes {
		l.pending = append(l.pending, Record{LSN: lsn, Page: page, Version: version})
	}
	return lsn
}

// AppendFullImage adds a full-page-image record (PostgreSQL-style torn-page
// protection): sizeBytes should be the page size plus record overhead.
//
//simlint:hotpath
func (l *Log) AppendFullImage(page, version uint64, sizeBytes int) uint64 {
	lsn := l.Append(sizeBytes)
	if l.cfg.RealBytes {
		l.pending = append(l.pending, Record{LSN: lsn, Page: page, Version: version, FullImage: true})
	}
	return lsn
}

// Commit makes the log durable up to lsn and returns when it is. Multiple
// committers share one flush (group commit).
//
//simlint:hotpath
func (l *Log) Commit(p *sim.Proc, lsn uint64) error {
	for l.durableLSN < lsn {
		if l.flushing {
			// Piggyback on the in-progress flush; re-check afterwards.
			l.GroupedCount++
			l.flushDone.Wait(p)
			continue
		}
		if err := l.flush(p); err != nil {
			return err
		}
	}
	return nil
}

// flush writes the buffered tail sequentially and fdatasyncs it.
func (l *Log) flush(p *sim.Proc) error {
	l.flushing = true
	defer l.flushEnded()
	target := l.nextLSN
	bytes := l.tailBytes
	l.tailBytes = 0
	if l.cfg.RealBytes {
		if err := l.flushRecords(p); err != nil {
			return err
		}
	} else {
		// Sequential log writes, padded to whole log blocks (device pages).
		blockBytes := int64(l.files[0].PageSize())
		pages := (bytes + blockBytes - 1) / blockBytes
		if pages == 0 {
			pages = 1 // the commit record itself
		}
		for pages > 0 {
			f := l.files[l.curFile]
			n := pages
			if l.writePos+n > l.cfg.FilePages {
				n = l.cfg.FilePages - l.writePos
			}
			if n == 0 {
				l.curFile = (l.curFile + 1) % len(l.files)
				l.writePos = 0
				continue
			}
			if err := f.WritePages(p, l.writePos, int(n), nil); err != nil {
				return err
			}
			l.writePos += n
			pages -= n
		}
	}
	if err := l.files[l.curFile].Fdatasync(p); err != nil {
		return err
	}
	l.Flushes++
	if target > l.durableLSN {
		l.durableLSN = target
	}
	return nil
}

// flushEnded lets the committers that piggybacked on a flush re-check.
func (l *Log) flushEnded() {
	l.flushing = false
	l.flushDone.WakeAll()
}

// flushRecords writes each pending record as one checksummed log block
// (RealBytes mode).
//
// Commits append while the flush parks in the device, so they go to the
// spare buffer, and the flushed one becomes the spare afterwards. Only one
// flush runs at a time, so one block buffer serves all of them: the device
// has taken each block when its write returns.
func (l *Log) flushRecords(p *sim.Proc) error {
	recs := l.pending
	l.pending, l.spare = l.spare[:0], nil
	if len(recs) == 0 {
		recs = append(recs, Record{}) // the flush still writes a padding block
	}
	if l.block == nil {
		l.block = make([]byte, l.files[0].PageSize()) //simlint:allow hotalloc slab first-use miss: the log's one block buffer
	}
	for _, rec := range recs {
		if l.writePos >= l.cfg.FilePages {
			l.curFile = (l.curFile + 1) % len(l.files)
			l.writePos = 0
		}
		encodeRecord(l.block, rec)
		if err := l.files[l.curFile].WritePages(p, l.writePos, 1, l.block); err != nil {
			return err
		}
		l.writePos++
	}
	l.spare = recs[:0]
	return nil
}

// encodeRecord writes rec into the first bytes of block; the rest of the
// block is left as it is.
func encodeRecord(block []byte, rec Record) {
	putU64(block[4:], rec.LSN)
	putU64(block[12:], rec.Page)
	putU64(block[20:], rec.Version)
	block[28] = 0
	if rec.FullImage {
		block[28] = 1
	}
	putU32(block[0:], checksum(block[4:29]))
}

func decodeRecord(block []byte) (Record, bool) {
	if len(block) < 29 || getU32(block[0:]) != checksum(block[4:29]) {
		return Record{}, false
	}
	rec := Record{
		LSN:       getU64(block[4:]),
		Page:      getU64(block[12:]),
		Version:   getU64(block[20:]),
		FullImage: block[28] == 1,
	}
	return rec, rec.LSN != 0
}

// ReadAll replays the on-storage log (RealBytes mode), returning surviving
// records in LSN order. Reading stops at the first invalid block of each
// file; records from all files are merged and sorted by LSN.
func (l *Log) ReadAll(p *sim.Proc) ([]Record, error) {
	var recs []Record
	block := make([]byte, l.files[0].PageSize())
	for _, f := range l.files {
		for pos := int64(0); pos < l.cfg.FilePages; pos++ {
			if err := f.ReadPages(p, pos, 1, block); err != nil {
				return nil, err
			}
			rec, ok := decodeRecord(block)
			if !ok {
				break
			}
			recs = append(recs, rec)
		}
	}
	sortRecords(recs)
	return recs, nil
}

func sortRecords(recs []Record) {
	// Records are nearly sorted already (single-file tests): insertion sort.
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].LSN < recs[j-1].LSN; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}
