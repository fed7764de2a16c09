// Package couch implements a Couchbase-style document store: an
// append-only, copy-on-write B+-tree where every update rewrites the
// root-to-leaf node path plus the document and appends them to storage as
// one unit (paper §4.3.3). Durability is traded against throughput with the
// batch-size knob: an fsync every k updates.
//
// With the paper's parameters — 1 KB documents, 4 KB tree nodes, a tree of
// depth four — each update appends about 20 KB.
package couch

import (
	"fmt"
	"time"

	"durassd/internal/dbsim/index"
	"durassd/internal/host"
	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// Config describes the store.
type Config struct {
	Docs      int64 // number of documents
	DocBytes  int   // document size (YCSB: ~1 KB)
	BatchSize int   // fsync every BatchSize updates (>=1)
}

const (
	nodeBytes = 4 * storage.KB // B+-tree node size
	// opCPU is the per-operation server CPU (single-threaded appends).
	opCPU = 150 * time.Microsecond
	// fsyncCPU is the host-side cost of an fsync call even without write
	// barriers (journal bookkeeping).
	fsyncCPU = 200 * time.Microsecond
)

func (c *Config) defaults() error {
	if c.Docs <= 0 {
		return fmt.Errorf("couch: Docs must be positive")
	}
	if c.DocBytes <= 0 {
		c.DocBytes = 1 * storage.KB
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("couch: BatchSize must be positive")
	}
	return nil
}

// Store is one Couchbase bucket's storage engine.
type Store struct {
	cfg  Config
	eng  *sim.Engine
	file *host.File
	tree *index.Tree

	appendPos    int64 // next device page in the append log
	filePages    int64
	sinceFsync   int
	pagesPerUpd  int
	updatesTotal int64
	fsyncsTotal  int64
	wraps        int64 // log wrap-arounds, each standing in for a compaction
}

// Open creates the store's append log on fs, sized to most of the device,
// and installs the initial documents instantly.
func Open(eng *sim.Engine, fs *host.FS, cfg Config) (*Store, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	// 75% of the device: an append-only store at higher fill would thrash
	// the FTL's garbage collector (thin over-provisioning + full logical
	// space is the worst case for greedy GC).
	filePages := fs.Device().Pages() * 3 / 4
	file, err := fs.Create("couch.couch", filePages)
	if err != nil {
		return nil, err
	}
	file.SetOrigin(iotrace.OriginJournal)
	tree, err := index.New(index.Config{
		PageBytes: nodeBytes,
		RowBytes:  64, // key + file offset per entry
		KeyBytes:  16,
		MaxRows:   cfg.Docs * 2,
	}, 0)
	if err != nil {
		return nil, err
	}
	tree.SetRows(cfg.Docs)

	st := &Store{cfg: cfg, eng: eng, file: file, tree: tree, filePages: filePages}
	// Update unit: root-to-leaf node path + the document, rounded to
	// device pages ("the size of each update was about 20KB").
	devPage := fs.Device().PageSize()
	updBytes := tree.Depth()*nodeBytes + cfg.DocBytes
	st.pagesPerUpd = (updBytes + devPage - 1) / devPage

	// Preload the initial documents (timing-free bulk load).
	initPages := cfg.Docs * int64((cfg.DocBytes+devPage-1)/devPage)
	if initPages > filePages/2 {
		initPages = filePages / 2
	}
	if err := file.Preload(0, initPages, nil); err != nil {
		return nil, err
	}
	st.appendPos = initPages
	return st, nil
}

// UpdateBytes returns the bytes appended per update.
func (s *Store) UpdateBytes() int { return s.pagesPerUpd * s.file.PageSize() }

// Depth returns the B+-tree depth.
func (s *Store) Depth() int { return s.tree.Depth() }

// Fsyncs returns the number of fsync calls issued.
func (s *Store) Fsyncs() int64 { return s.fsyncsTotal }

// Update rewrites one document: the new document and its rewritten tree
// path are appended as a single unit, and every BatchSize-th update fsyncs
// the log.
func (s *Store) Update(p *sim.Proc, key int64) error {
	if key < 0 || key >= s.cfg.Docs {
		return fmt.Errorf("couch: key %d out of range", key)
	}
	p.Sleep(opCPU)
	if s.appendPos+int64(s.pagesPerUpd) > s.filePages {
		// The append log wrapped: compaction reclaimed the head. It is
		// modeled as a free wrap; no compaction I/O is simulated.
		s.appendPos = 0
		s.wraps++
	}
	if err := s.file.WritePages(p, s.appendPos, s.pagesPerUpd, nil); err != nil {
		return err
	}
	s.appendPos += int64(s.pagesPerUpd)
	s.updatesTotal++
	s.sinceFsync++
	if s.sinceFsync >= s.cfg.BatchSize {
		s.sinceFsync = 0
		if err := s.fsync(p); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) fsync(p *sim.Proc) error {
	p.Sleep(fsyncCPU)
	s.fsyncsTotal++
	return s.file.Fdatasync(p)
}

// Read fetches one document. A cached read is served from the managed
// cache; the rest read the document from the log.
func (s *Store) Read(p *sim.Proc, key int64, cached bool) error {
	if key < 0 || key >= s.cfg.Docs {
		return fmt.Errorf("couch: key %d out of range", key)
	}
	p.Sleep(opCPU)
	if cached {
		return nil
	}
	devPage := s.file.PageSize()
	n := (s.cfg.DocBytes + devPage - 1) / devPage
	off := (key * int64(n)) % (s.filePages - int64(n))
	return s.file.ReadPages(p, off, n, nil)
}
