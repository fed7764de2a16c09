// Package buffer implements a database buffer pool with the structure of
// the paper's Figure 1: a main LRU list, a free list, a dirty-page set, a
// background page cleaner, and — critically for the paper's latency
// argument — reads that block on writing back a dirty victim when the free
// list is empty.
//
// The pool is engine-agnostic: dirty pages are persisted through a
// PageWriter, which lets InnoDB interpose its double-write buffer and
// write-ahead-log ordering without the pool knowing.
package buffer

import (
	"fmt"
	"time"

	"durassd/internal/sim"
)

// PageID identifies a database page within the engine's page space.
type PageID int64

// PageWrite is one dirty page image handed to the PageWriter.
type PageWrite struct {
	ID   PageID
	LSN  uint64 // newest log record touching the page (WAL ordering)
	Data []byte // nil in timing-only mode
}

// PageWriter persists a batch of dirty pages. Implementations decide the
// atomic-write strategy: plain in-place writes, or InnoDB's double-write
// buffer (write the batch to the DWB area, fsync, write in place, fsync).
type PageWriter interface {
	WritePages(p *sim.Proc, pages []PageWrite) error
}

// PageReader fills a page image from storage.
type PageReader interface {
	ReadPage(p *sim.Proc, id PageID, buf []byte) error
}

// Config tunes the pool.
type Config struct {
	Frames    int // pool size in pages
	PageBytes int // database page size
	RealBytes bool

	// CleanerInterval is the background page-cleaner period; 0 disables
	// the cleaner (every write-back then happens on the eviction path).
	CleanerInterval time.Duration
}

const (
	// cleanerBatch is the number of dirty pages flushed per cleaner round.
	cleanerBatch = 64
	// cleanerDirtyPct triggers cleaning when dirty pages exceed this
	// fraction of the pool (percent).
	cleanerDirtyPct = 50
)

// Stats counts pool activity.
type Stats struct {
	Gets           int64
	Hits           int64
	Misses         int64
	Evictions      int64
	DirtyEvictions int64 // reads that had to write back a victim first
	CleanerFlushes int64
}

// none marks the end of the LRU list.
const none = -1

// Frame is a buffer frame. Access it only while pinned. The pool's frames
// are one slab, and the LRU list runs through them by slab index.
type Frame struct {
	id     PageID
	data   []byte
	lsn    uint64
	dirty  bool
	pins   int
	busy   bool // I/O in progress
	inPool bool // holds a page: in the page table and on the LRU list
	// self is the frame's slab index; newer and older are its LRU
	// neighbours toward the MRU and the LRU end, none past them.
	self, newer, older int32
	latch              *sim.Resource // exclusive page latch (created on first use)
}

// Data returns the page image (nil in timing-only pools).
func (f *Frame) Data() []byte { return f.data }

// Pool is the buffer pool.
type Pool struct {
	eng    *sim.Engine
	cfg    Config
	reader PageReader
	writer PageWriter

	slab           []Frame
	frames         map[PageID]*Frame
	newest, oldest int32 // LRU list ends: the MRU frame and the victim side
	free           []*Frame
	dirty          int

	inIO     map[PageID]*sim.Queue // page reads in progress: their waiters
	flushers *sim.Queue            // procs waiting for a frame being written
	cleanerQ *sim.Queue            // wakes the cleaner when dirty crosses the threshold

	// Free lists: a read's wait queue returns when the read ends, a
	// write-back's batch when its write does.
	readQs  []*sim.Queue
	batches []*batch

	closed bool
	stats  Stats
}

// batch is the scratch of one write-back: its victims and their page
// images. Write-backs park in the writer, and the cleaner and readers that
// evict a dirty victim write back at once, so each takes its own.
type batch struct {
	frames []*Frame
	writes []PageWrite
}

// New builds a pool of cfg.Frames frames over the given reader/writer and
// starts the background cleaner (if configured).
func New(eng *sim.Engine, cfg Config, reader PageReader, writer PageWriter) (*Pool, error) {
	if cfg.Frames <= 0 {
		return nil, fmt.Errorf("buffer: pool needs at least one frame")
	}
	bp := &Pool{
		eng:      eng,
		cfg:      cfg,
		reader:   reader,
		writer:   writer,
		slab:     make([]Frame, cfg.Frames),
		frames:   make(map[PageID]*Frame, cfg.Frames),
		newest:   none,
		oldest:   none,
		free:     make([]*Frame, 0, cfg.Frames),
		inIO:     make(map[PageID]*sim.Queue),
		flushers: sim.NewQueue(eng),
		cleanerQ: sim.NewQueue(eng),
	}
	for i := range bp.slab {
		fr := &bp.slab[i]
		fr.self = int32(i)
		if cfg.RealBytes {
			fr.data = make([]byte, cfg.PageBytes)
		}
		bp.free = append(bp.free, fr)
	}
	if cfg.CleanerInterval > 0 {
		eng.Go("page-cleaner", bp.cleaner)
	}
	return bp, nil
}

// Stats returns the live counters.
func (bp *Pool) Stats() *Stats { return &bp.stats }

// pushNewest puts fr at the MRU end of the LRU list.
func (bp *Pool) pushNewest(fr *Frame) {
	fr.newer, fr.older = none, bp.newest
	if bp.newest != none {
		bp.slab[bp.newest].newer = fr.self
	} else {
		bp.oldest = fr.self
	}
	bp.newest = fr.self
}

// unlink takes fr off the LRU list.
func (bp *Pool) unlink(fr *Frame) {
	if fr.newer != none {
		bp.slab[fr.newer].older = fr.older
	} else {
		bp.newest = fr.older
	}
	if fr.older != none {
		bp.slab[fr.older].newer = fr.newer
	} else {
		bp.oldest = fr.newer
	}
}

// Get pins the page, reading it from storage on a miss. The returned frame
// stays pinned until Unpin.
//
//simlint:hotpath
func (bp *Pool) Get(p *sim.Proc, id PageID) (*Frame, error) {
	bp.stats.Gets++
	for {
		if fr, ok := bp.frames[id]; ok {
			if fr.busy {
				// Someone is reading or writing this exact page; wait.
				if q := bp.inIO[id]; q != nil {
					q.Wait(p)
				} else {
					// Being written back; retry after the writer finishes.
					bp.flushers.Wait(p)
				}
				continue
			}
			bp.stats.Hits++
			fr.pins++
			if bp.newest != fr.self {
				bp.unlink(fr)
				bp.pushNewest(fr)
			}
			return fr, nil
		}
		// Miss. Serialize concurrent faults on the same page.
		if q, ok := bp.inIO[id]; ok {
			q.Wait(p)
			continue
		}
		bp.stats.Misses++
		q := bp.readQ()
		bp.inIO[id] = q
		fr, err := bp.takeFreeFrame(p)
		if err == nil {
			fr.id = id
			fr.busy = true
			fr.dirty = false
			fr.lsn = 0
			fr.inPool = true
			bp.frames[id] = fr
			bp.pushNewest(fr)
			err = bp.reader.ReadPage(p, id, fr.data)
			fr.busy = false
		}
		delete(bp.inIO, id)
		// The woken waiters re-check the page table, not the queue, so it
		// is free for the next read at once.
		q.WakeAll()
		bp.readQs = append(bp.readQs, q)
		if err != nil {
			if fr != nil && fr.inPool {
				bp.removeFrame(fr)
				bp.free = append(bp.free, fr)
			}
			return nil, err
		}
		fr.pins++
		return fr, nil
	}
}

// readQ takes a wait queue for a page read from the free list.
func (bp *Pool) readQ() *sim.Queue { //simlint:allow hotalloc free-list miss: one queue per concurrent page read, kept for reuse
	if n := len(bp.readQs); n > 0 {
		q := bp.readQs[n-1]
		bp.readQs = bp.readQs[:n-1]
		return q
	}
	return sim.NewQueue(bp.eng)
}

// takeFreeFrame returns a frame from the free list, evicting (and if dirty,
// writing back — the "read blocked by write" of Figure 1) when empty.
func (bp *Pool) takeFreeFrame(p *sim.Proc) (*Frame, error) {
	for {
		if n := len(bp.free); n > 0 {
			fr := bp.free[n-1]
			bp.free = bp.free[:n-1]
			return fr, nil
		}
		fr, err := bp.evictOne(p)
		if err != nil {
			return nil, err
		}
		if fr != nil {
			return fr, nil
		}
		// Everything pinned or busy: wait for a write-back to finish.
		bp.flushers.Wait(p)
	}
}

// evictOne scans the LRU list from the tail for an unpinned victim.
// A dirty victim is written back synchronously before reuse.
//
//simlint:hotpath
func (bp *Pool) evictOne(p *sim.Proc) (*Frame, error) {
	for i := bp.oldest; i != none; i = bp.slab[i].newer {
		fr := &bp.slab[i]
		if fr.pins > 0 || fr.busy {
			continue
		}
		if fr.dirty {
			bp.stats.DirtyEvictions++
			b := bp.takeBatch()
			b.frames = append(b.frames, fr)
			err := bp.writeBack(p, b)
			bp.batches = append(bp.batches, b)
			if err != nil {
				return nil, err
			}
			// The victim may have changed while it was written: report no
			// frame, and the caller waits for the next write-back to end
			// before it scans again.
			if fr.dirty || fr.pins > 0 || !fr.inPool {
				return nil, nil
			}
		}
		bp.removeFrame(fr)
		bp.stats.Evictions++
		return fr, nil
	}
	return nil, nil
}

func (bp *Pool) removeFrame(fr *Frame) {
	delete(bp.frames, fr.id)
	if fr.inPool {
		bp.unlink(fr)
	}
	fr.inPool = false
	fr.dirty = false
}

// takeBatch takes an empty write-back batch from the free list.
func (bp *Pool) takeBatch() *batch {
	if n := len(bp.batches); n > 0 {
		b := bp.batches[n-1]
		bp.batches = bp.batches[:n-1]
		b.frames = b.frames[:0]
		return b
	}
	return &batch{} //simlint:allow hotalloc free-list miss: one batch per concurrent write-back, kept for reuse
}

// writeBack persists the batch's dirty frames as one write via the writer.
//
//simlint:hotpath
func (bp *Pool) writeBack(p *sim.Proc, b *batch) error {
	b.writes = b.writes[:0]
	for _, fr := range b.frames {
		fr.busy = true
		b.writes = append(b.writes, PageWrite{ID: fr.id, LSN: fr.lsn, Data: fr.data})
	}
	err := bp.writer.WritePages(p, b.writes)
	for _, fr := range b.frames {
		fr.busy = false
		if err == nil && fr.dirty {
			fr.dirty = false
			bp.dirty--
		}
	}
	bp.flushers.WakeAll()
	return err
}

// LockX acquires the frame's exclusive page latch. Modifying operations
// hold it for their page-CPU time, so a hot 16 KB leaf serializes four
// times the key range of a 4 KB one — the concurrency-granularity effect
// behind the paper's small-page argument (§2.4).
func (bp *Pool) LockX(p *sim.Proc, fr *Frame) { //simlint:allow hotalloc a frame's first latch creates it, once per frame of the slab
	if fr.latch == nil {
		fr.latch = sim.NewResource(bp.eng, 1)
	}
	fr.latch.Acquire(p, 1)
}

// UnlockX releases the exclusive page latch.
func (bp *Pool) UnlockX(fr *Frame) { fr.latch.Release(1) }

// MarkDirty records a modification to a pinned frame at the given LSN.
//
//simlint:hotpath
func (bp *Pool) MarkDirty(fr *Frame, lsn uint64) {
	if fr.pins <= 0 {
		panic("buffer: MarkDirty on unpinned frame")
	}
	if !fr.dirty {
		fr.dirty = true
		bp.dirty++
		if bp.overThreshold() {
			bp.cleanerQ.WakeOne()
		}
	}
	if lsn > fr.lsn {
		fr.lsn = lsn
	}
}

// Unpin releases a pinned frame.
func (bp *Pool) Unpin(fr *Frame) {
	if fr.pins <= 0 {
		panic("buffer: Unpin of unpinned frame")
	}
	fr.pins--
}

// cleaner is the background flusher: it keeps the dirty fraction below the
// configured threshold by writing LRU-tail pages in batches. It is
// condition-driven (woken by MarkDirty when the threshold is crossed) so an
// idle pool schedules no events.
func (bp *Pool) cleaner(p *sim.Proc) {
	for !bp.closed {
		if !bp.overThreshold() {
			bp.cleanerQ.Wait(p)
			continue
		}
		p.Sleep(bp.cfg.CleanerInterval) // batching delay
		if bp.closed {
			return
		}
		b := bp.collectDirtyTail(cleanerBatch)
		n := len(b.frames)
		if n == 0 {
			// Dirty pages are all pinned or busy; yield until state changes.
			bp.batches = append(bp.batches, b)
			bp.cleanerQ.Wait(p)
			continue
		}
		err := bp.writeBack(p, b)
		bp.batches = append(bp.batches, b)
		if err != nil {
			return
		}
		bp.stats.CleanerFlushes += int64(n)
	}
}

func (bp *Pool) overThreshold() bool {
	return bp.dirty*100 >= bp.cfg.Frames*cleanerDirtyPct
}

// collectDirtyTail returns a batch holding up to max unpinned, idle dirty
// frames from the LRU end. The caller returns it to bp.batches.
func (bp *Pool) collectDirtyTail(max int) *batch {
	b := bp.takeBatch()
	for i := bp.oldest; i != none && len(b.frames) < max; i = bp.slab[i].newer {
		fr := &bp.slab[i]
		if fr.dirty && !fr.busy && fr.pins == 0 {
			b.frames = append(b.frames, fr)
		}
	}
	return b
}

// FlushAll writes every dirty page (checkpoint / clean shutdown).
func (bp *Pool) FlushAll(p *sim.Proc) error {
	for {
		b := bp.collectDirtyTail(cleanerBatch)
		if len(b.frames) == 0 {
			bp.batches = append(bp.batches, b)
			if bp.dirty == 0 {
				return nil
			}
			// Dirty pages are pinned or busy; let their holders progress.
			bp.flushers.Wait(p)
			continue
		}
		err := bp.writeBack(p, b)
		bp.batches = append(bp.batches, b)
		if err != nil {
			return err
		}
	}
}

// Close stops the cleaner.
func (bp *Pool) Close() { bp.closed = true }
