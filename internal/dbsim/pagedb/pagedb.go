// Package pagedb is the page-oriented storage engine both relational
// engines of the paper's §2.1 are profiles of: a shared buffer pool (LRU +
// free list + page cleaner), B+-tree tables, a redo log with group commit,
// and crash recovery. InnoDB's double-write buffer and PostgreSQL's
// full-page writes are the same kind of thing — a redundant write that
// exists only because storage tears pages — so both are Config data here,
// not two engines; internal/innodb and internal/pgsql supply the file
// names and defaults.
//
// Flush path semantics follow the paper's description (§2.1):
//
//   - double-write ON: a batch of dirty pages is written sequentially to
//     the double-write area, fsync'd, rewritten in place, and fsync'd
//     again — two physical writes and two flush-cache commands per batch
//     when the filesystem has barriers on.
//   - double-write OFF: pages are written in place once and fsync'd once,
//     which is only safe on a device with atomic page writes (DuraSSD) or
//     with full-page writes on.
//   - full-page writes ON: the first change to a page after a checkpoint
//     logs the whole page, "at the cost of increasing the amount of data
//     to be written to the log"; recovery re-bases a torn page on it.
//
// In RealBytes mode every page carries a checksummed, version-stamped
// image (storage.BuildPageImage) and the redo log stores real records, so
// crash tests can replay recovery and detect torn or lost writes exactly
// like production checksum validation would.
package pagedb

import (
	"errors"
	"fmt"
	"time"

	"durassd/internal/dbsim/buffer"
	"durassd/internal/dbsim/index"
	"durassd/internal/dbsim/wal"
	"durassd/internal/host"
	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// ErrTornPage reports a page whose checksum failed validation on read.
var ErrTornPage = errors.New("pagedb: torn page detected (checksum mismatch)")

// Config tunes the engine. A zero PageBytes, LogFiles, LogFilePages or
// CheckpointWALBytes takes the profile's default.
type Config struct {
	PageBytes   int   // database page size: 4, 8 or 16 KB
	BufferBytes int64 // buffer pool size
	DataPages   int64 // data file capacity in database pages

	// DoubleWrite is the paper's double-write-buffer knob (profiles with a
	// double-write area only).
	DoubleWrite bool
	// FullPageWrites logs a page's whole image on first touch after a
	// checkpoint (the safe default on torn-write storage).
	FullPageWrites bool
	// CheckpointWALBytes triggers a checkpoint after this much WAL
	// (max_wal_size); each checkpoint re-arms full-page logging. 0 = never.
	CheckpointWALBytes int64

	LogFilePages int64 // device pages per redo file
	LogFiles     int

	RealBytes bool // page images + real redo records (crash testing)

	// ODSync opens the data file with O_DSYNC, the commercial database's
	// behaviour in the paper's TPC-C experiment: every page write carries
	// its own write barrier (when the filesystem honors barriers), and the
	// engine issues no separate fsyncs on the flush path.
	ODSync bool

	CleanerInterval time.Duration
}

// Profile is what tells one engine of the family from another: its name
// (the prefix of its errors), its files — created in the order data,
// double-write area, log, which fixes their device addresses — and the
// defaults a zero Config field takes.
type Profile struct {
	Name     string
	DataFile string
	DWBFile  string // "" = no double-write area; else allocated even when DoubleWrite is off
	Defaults Config // PageBytes, LogFiles, LogFilePages, CheckpointWALBytes
}

func (c *Config) defaults(pr *Profile) error {
	if c.BufferBytes <= 0 {
		return fmt.Errorf("%s: BufferBytes must be positive", pr.Name)
	}
	if c.DataPages <= 0 {
		return fmt.Errorf("%s: DataPages must be positive", pr.Name)
	}
	if c.DoubleWrite && pr.DWBFile == "" {
		return fmt.Errorf("%s: DoubleWrite needs a double-write area, which this engine has none of", pr.Name)
	}
	orDefault(&c.PageBytes, pr.Defaults.PageBytes)
	orDefault(&c.LogFiles, pr.Defaults.LogFiles)
	orDefault(&c.LogFilePages, pr.Defaults.LogFilePages)
	orDefault(&c.CheckpointWALBytes, pr.Defaults.CheckpointWALBytes)
	if c.CleanerInterval == 0 {
		c.CleanerInterval = 5 * time.Millisecond
	}
	return nil
}

// Fixed engine parameters.
const (
	dwbBatch       = 128 // double-write batch capacity in pages
	logRecordBytes = 128 // redo record payload per row change
)

// orDefault gives an unset (zero or negative) field its default.
func orDefault[T int | int64](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

// Engine is the storage engine.
type Engine struct {
	name string // the profile's, for errors
	cfg  Config

	dataFile *host.File
	dwbFile  *host.File // nil in a profile without a double-write area
	pool     *buffer.Pool
	log      *wal.Log
	tables   map[string]*Table
	nextPage buffer.PageID
	perDB    int // device pages per database page
	// writeHold is the row-change CPU while holding the leaf's exclusive
	// latch; it scales mildly with page size (bigger pages: longer
	// searches and copies).
	writeHold time.Duration

	versions   map[buffer.PageID]uint64 // bytes mode: current page versions
	fpwLogged  map[buffer.PageID]bool   // FPW: pages whose image is in the WAL since the last checkpoint
	ckptBase   int64                    // BytesLogged at the last checkpoint
	inCkpt     bool
	dwbImages  [][]byte // free list of double-write batch images (RealBytes)
	auditPages [][]byte // free list of pages for PageVersionOnDisk

	// Stats
	Commits     int64
	PageWrites  int64
	DWBWrites   int64
	Checkpoints int64
	FPWImages   int64 // full-page images logged
}

// Open creates an engine with its data files on dataFS and redo log on
// logFS (the paper gives the log its own DuraSSD; pass the same FS to share
// one device).
func (pr Profile) Open(eng *sim.Engine, dataFS, logFS *host.FS, cfg Config) (*Engine, error) {
	return pr.open(eng, dataFS, logFS, cfg, false)
}

// Reopen attaches a fresh engine (empty buffer pool, as after a process or
// power crash) to existing data and log files. The caller then runs Recover.
func (pr Profile) Reopen(eng *sim.Engine, dataFS, logFS *host.FS, cfg Config) (*Engine, error) {
	return pr.open(eng, dataFS, logFS, cfg, true)
}

func (pr Profile) open(eng *sim.Engine, dataFS, logFS *host.FS, cfg Config, reopen bool) (*Engine, error) {
	if err := cfg.defaults(&pr); err != nil {
		return nil, err
	}
	devPage := dataFS.Device().PageSize()
	if cfg.PageBytes%devPage != 0 {
		return nil, fmt.Errorf("%s: page %d not a multiple of device page %d", pr.Name, cfg.PageBytes, devPage)
	}
	e := &Engine{
		name:      pr.Name,
		cfg:       cfg,
		tables:    make(map[string]*Table),
		perDB:     cfg.PageBytes / devPage,
		writeHold: 100*time.Microsecond + 4*time.Microsecond*time.Duration(cfg.PageBytes/1024),
		versions:  make(map[buffer.PageID]uint64),
		fpwLogged: make(map[buffer.PageID]bool),
	}
	file, newLog := dataFS.Create, wal.New
	if reopen {
		file = func(name string, _ int64) (*host.File, error) { return dataFS.Open(name) }
		newLog = wal.Reopen
	}
	var err error
	if e.dataFile, err = file(pr.DataFile, cfg.DataPages*int64(e.perDB)); err != nil {
		return nil, err
	}
	e.dataFile.SetODSync(cfg.ODSync)
	e.dataFile.SetOrigin(iotrace.OriginData)
	if pr.DWBFile != "" {
		if e.dwbFile, err = file(pr.DWBFile, int64(dwbBatch*e.perDB)); err != nil {
			return nil, err
		}
		e.dwbFile.SetOrigin(iotrace.OriginDoubleWrite)
	}
	if e.log, err = newLog(eng, logFS, wal.Config{FilePages: cfg.LogFilePages, Files: cfg.LogFiles, RealBytes: cfg.RealBytes}); err != nil {
		return nil, err
	}
	e.pool, err = buffer.New(eng, buffer.Config{
		Frames:          int(cfg.BufferBytes / int64(cfg.PageBytes)),
		PageBytes:       cfg.PageBytes,
		RealBytes:       cfg.RealBytes,
		CleanerInterval: cfg.CleanerInterval,
	}, (*pageReader)(e), (*pageWriter)(e))
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Pool exposes the buffer pool (stats for Figure 6a).
func (e *Engine) Pool() *buffer.Pool { return e.pool }

// Log exposes the redo log.
func (e *Engine) Log() *wal.Log { return e.log }

// PageBytes returns the configured database page size.
func (e *Engine) PageBytes() int { return e.cfg.PageBytes }

// pageReader adapts the engine to buffer.PageReader.
type pageReader Engine

func (r *pageReader) ReadPage(p *sim.Proc, id buffer.PageID, buf []byte) error {
	e := (*Engine)(r)
	if err := e.readData(p, id, buf); err != nil {
		return err
	}
	// Safety check, both profiles: a page the engine knows it wrote must
	// come back with a valid checksum.
	if e.cfg.RealBytes && buf != nil && e.versions[id] > 0 {
		if _, _, valid := storage.ParsePageImage(buf); !valid {
			return fmt.Errorf("%w: page %d", ErrTornPage, id)
		}
	}
	return nil
}

func (e *Engine) readData(p *sim.Proc, id buffer.PageID, buf []byte) error {
	return e.dataFile.ReadPages(p, int64(id)*int64(e.perDB), e.perDB, buf)
}

func (e *Engine) writeData(p *sim.Proc, id buffer.PageID, data []byte) error {
	return e.dataFile.WritePages(p, int64(id)*int64(e.perDB), e.perDB, data)
}

// pageWriter adapts the engine to buffer.PageWriter, implementing the
// WAL-before-data rule and the double-write buffer.
type pageWriter Engine

//simlint:hotpath
func (w *pageWriter) WritePages(p *sim.Proc, pages []buffer.PageWrite) error {
	e := (*Engine)(w)
	// WAL rule: the log must be durable up to the newest LSN in the batch
	// before any of these pages hits storage.
	var maxLSN uint64
	for _, pg := range pages {
		maxLSN = max(maxLSN, pg.LSN)
	}
	if maxLSN > 0 {
		if err := e.log.Commit(p, maxLSN); err != nil {
			return err
		}
	}
	// Without the double-write buffer the whole batch (never empty: the
	// pool has nothing to ask then) is one chunk: a single in-place write
	// per page and one fsync.
	chunk := len(pages)
	if e.cfg.DoubleWrite {
		chunk = dwbBatch
	}
	for len(pages) > 0 {
		batch := pages[:min(chunk, len(pages))]
		pages = pages[len(batch):]
		if e.cfg.DoubleWrite {
			// Phase 1: sequential batch into the double-write area + fsync.
			var img []byte
			if e.cfg.RealBytes {
				img = e.dwbImage()
				for _, pg := range batch {
					img = append(img, pg.Data...)
				}
			}
			if err := e.dwbFile.WritePages(p, 0, len(batch)*e.perDB, img); err != nil {
				return err
			}
			if img != nil {
				e.dwbImages = append(e.dwbImages, img)
			}
			if err := e.syncData(p, e.dwbFile); err != nil {
				return err
			}
			e.DWBWrites += int64(len(batch))
		}
		// Phase 2 (the only one with double-write off): in place + fsync.
		for _, pg := range batch {
			if err := e.writeData(p, pg.ID, pg.Data); err != nil {
				return err
			}
			e.PageWrites++
		}
		if err := e.syncData(p, e.dataFile); err != nil {
			return err
		}
	}
	return nil
}

// dwbImage takes an empty double-write batch image from the free list. A
// batch holds its image until the device has taken it, and the cleaner and
// readers evicting dirty pages write batches at once, so each takes its own.
func (e *Engine) dwbImage() []byte {
	if n := len(e.dwbImages); n > 0 {
		img := e.dwbImages[n-1]
		e.dwbImages = e.dwbImages[:n-1]
		return img[:0]
	}
	return make([]byte, 0, dwbBatch*e.cfg.PageBytes) //simlint:allow hotalloc free-list miss: one image per concurrent double-write batch, kept for reuse
}

// syncData fsyncs a data file unless the engine runs O_DSYNC (each write
// already carried its barrier).
func (e *Engine) syncData(p *sim.Proc, f *host.File) error {
	if e.cfg.ODSync {
		return nil
	}
	return f.Fdatasync(p)
}

// Table is a B+-tree-organized table (or secondary index).
type Table struct {
	e    *Engine
	tree *index.Tree
}

// CreateTable reserves page space for a table of at most cfg.MaxRows rows.
// cfg.PageBytes is forced to the engine's page size.
func (e *Engine) CreateTable(name string, cfg index.Config) (*Table, error) {
	if _, ok := e.tables[name]; ok {
		return nil, fmt.Errorf("%s: table %q exists", e.name, name)
	}
	cfg.PageBytes = e.cfg.PageBytes
	tree, err := index.New(cfg, e.nextPage)
	if err != nil {
		return nil, err
	}
	if int64(e.nextPage)+tree.Pages() > e.cfg.DataPages {
		return nil, fmt.Errorf("%s: data file full creating %q", e.name, name)
	}
	e.nextPage += buffer.PageID(tree.Pages())
	t := &Table{e: e, tree: tree}
	e.tables[name] = t
	return t, nil
}

// Tree exposes the table's index topology.
func (t *Table) Tree() *index.Tree { return t.tree }

// BulkLoad installs rows instantly (initial database load): the row count
// is set and the table's whole reserved range is preloaded on the device
// as timing-only images.
func (t *Table) BulkLoad(rows int64) error {
	t.tree.SetRows(rows)
	perDB := int64(t.e.perDB)
	return t.e.dataFile.Preload(int64(t.tree.LeafOf(0))*perDB, t.tree.Pages()*perDB, nil)
}

// Tx is a transaction handle.
type Tx struct {
	e       *Engine
	maxLSN  uint64
	writes  int
	touched []PageVersion // bytes mode: the versions written, in order
	// pages is the scratch the tree appends a search path, the leaves of a
	// scan or the pages a change dirties to: each is used before the next
	// is computed, and a path is the tree's depth, single digits.
	pages [8]buffer.PageID
}

// PageVersion is one page version a transaction wrote.
type PageVersion struct {
	ID      buffer.PageID
	Version uint64
}

// Touched returns the page versions this transaction wrote (bytes mode), in
// the order it wrote them; a page written twice appears twice, its later
// version last. Crash harnesses record them after Commit to verify
// durability.
func (tx *Tx) Touched() []PageVersion { return tx.touched }

// Begin starts a transaction.
func (e *Engine) Begin() *Tx { return &Tx{e: e} }

// touch pins and unpins one page (read access).
//
//simlint:hotpath
func (e *Engine) touch(p *sim.Proc, id buffer.PageID) error {
	fr, err := e.pool.Get(p, id)
	if err != nil {
		return err
	}
	e.pool.Unpin(fr)
	return nil
}

// touchWrite applies one row change to the page: it holds the page's
// exclusive latch for the row-change CPU time, advances the page version,
// appends the redo record — the whole page on its first change since the
// last checkpoint when full-page writes are on — and dirties the frame.
// Version assignment and logging happen under the latch, so concurrent
// writers to the same page serialize correctly.
//
//simlint:hotpath
func (e *Engine) touchWrite(p *sim.Proc, tx *Tx, id buffer.PageID) error {
	fr, err := e.pool.Get(p, id)
	if err != nil {
		return err
	}
	e.pool.LockX(p, fr)
	p.Sleep(e.writeHold)
	var ver uint64
	if e.cfg.RealBytes {
		e.versions[id]++
		ver = e.versions[id]
		storage.BuildPageImage(fr.Data(), uint64(id), ver)
		tx.touched = append(tx.touched, PageVersion{id, ver})
	}
	size := logRecordBytes
	fullImage := e.cfg.FullPageWrites && !e.fpwLogged[id]
	if fullImage {
		e.fpwLogged[id] = true
		e.FPWImages++
		size += e.cfg.PageBytes
	}
	var lsn uint64
	switch {
	case !e.cfg.RealBytes:
		lsn = e.log.Append(size)
	case fullImage:
		lsn = e.log.AppendFullImage(uint64(id), ver, size)
	default:
		lsn = e.log.AppendRecord(uint64(id), ver, size)
	}
	tx.maxLSN = max(tx.maxLSN, lsn)
	tx.writes++
	e.pool.MarkDirty(fr, lsn)
	e.pool.UnlockX(fr)
	e.pool.Unpin(fr)
	return nil
}

// descend reads the interior pages on the tree path to rank and returns
// the leaf at its end, unread.
//
//simlint:hotpath
func (tx *Tx) descend(p *sim.Proc, t *Table, rank int64) (buffer.PageID, error) {
	path := t.tree.SearchPath(tx.pages[:0], rank)
	leaf := len(path) - 1
	for _, id := range path[:leaf] {
		if err := tx.e.touch(p, id); err != nil {
			return 0, err
		}
	}
	return path[leaf], nil
}

// Lookup reads the row at rank through the tree path.
//
//simlint:hotpath
func (tx *Tx) Lookup(p *sim.Proc, t *Table, rank int64) error {
	leaf, err := tx.descend(p, t, rank)
	if err != nil {
		return err
	}
	return tx.e.touch(p, leaf)
}

// Scan reads n consecutive rows starting at rank (path to the first leaf,
// then sibling leaves). With n <= 0 it reads the path alone.
//
//simlint:hotpath
func (tx *Tx) Scan(p *sim.Proc, t *Table, rank, n int64) error {
	if err := tx.Lookup(p, t, rank); err != nil {
		return err
	}
	leaves := t.tree.ScanLeaves(tx.pages[:0], rank, n)
	for i := 1; i < len(leaves); i++ {
		if err := tx.e.touch(p, leaves[i]); err != nil {
			return err
		}
	}
	return nil
}

// Update modifies the row at rank: tree path read, leaf dirtied, redo
// logged.
//
//simlint:hotpath
func (tx *Tx) Update(p *sim.Proc, t *Table, rank int64) error {
	leaf, err := tx.descend(p, t, rank)
	if err != nil {
		return err
	}
	return tx.e.touchWrite(p, tx, leaf)
}

// Insert adds a row at rank; splits dirty parent pages amortizedly.
//
//simlint:hotpath
func (tx *Tx) Insert(p *sim.Proc, t *Table, rank int64) error {
	if _, err := tx.descend(p, t, rank); err != nil {
		return err
	}
	for _, id := range t.tree.Insert(tx.pages[:0], rank) {
		if err := tx.e.touchWrite(p, tx, id); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the row at rank. (Not folded with Insert over a function
// value: through one, the Tx's scratch would escape with it.)
//
//simlint:hotpath
func (tx *Tx) Delete(p *sim.Proc, t *Table, rank int64) error {
	if _, err := tx.descend(p, t, rank); err != nil {
		return err
	}
	for _, id := range t.tree.Delete(tx.pages[:0], rank) {
		if err := tx.e.touchWrite(p, tx, id); err != nil {
			return err
		}
	}
	return nil
}

// Commit makes the transaction durable: the log is flushed up to its last
// LSN (group commit; honors the filesystem barrier setting). A read-only
// transaction flushes nothing. With a WAL budget (non-zero: the PostgreSQL
// profile) every commit, read-only or not, checks it, as any backend may
// be the one to start the checkpoint.
//
//simlint:hotpath
func (tx *Tx) Commit(p *sim.Proc) error {
	e := tx.e
	if tx.writes > 0 {
		if err := e.log.Commit(p, tx.maxLSN); err != nil {
			return err
		}
		e.Commits++
	}
	if budget := e.cfg.CheckpointWALBytes; budget > 0 && e.log.BytesLogged-e.ckptBase > budget {
		return e.Checkpoint(p)
	}
	return nil
}

// Checkpoint flushes every dirty page and re-arms full-page logging.
// Concurrent callers coalesce onto one checkpoint.
func (e *Engine) Checkpoint(p *sim.Proc) error {
	if e.inCkpt {
		return nil // another backend is already checkpointing
	}
	e.inCkpt = true
	e.ckptBase = e.log.BytesLogged
	err := e.pool.FlushAll(p)
	e.inCkpt = false
	if err != nil {
		return err
	}
	clear(e.fpwLogged)
	e.Checkpoints++
	return nil
}

// Close stops background workers.
func (e *Engine) Close() { e.pool.Close() }
