// Package core implements the paper's primary contribution: the DuraSSD
// firmware built around a capacitor-backed durable write cache (paper §3).
//
// The Controller combines the four components of Figure 3:
//
//   - Durable cache — a pool of buffered pages plus the page mapping table,
//     both protected by tantalum capacitors. Writes are acknowledged the
//     moment their data lands in the cache; duplicate copies of a page that
//     has not reached flash yet are coalesced, improving endurance.
//   - Atomic writer — a write command's slots are staged into the cache in
//     a single uninterruptible step after admission control, so a power cut
//     can never leave a command half-applied (incomplete commands roll
//     back, complete commands are durable).
//   - Flusher — background workers continuously pull write-backs from the
//     FIFO flush list, pair 4 KB slots into full 8 KB NAND programs, and
//     exploit the array's channel/plane parallelism.
//   - Recovery manager — on power-off detection, flushes the modified
//     mapping entries and the buffer pool to the pre-erased dump area under
//     capacitor power; on reboot, recharges the capacitors, replays the
//     dump and erases it (idempotent recovery).
//
// The same Controller type, constructed with Durable=false, models a
// conventional volatile write cache: flush-cache really drains to NAND plus
// a mapping-journal flush, and a power cut loses every cached page.
package core

import (
	"errors"
	"slices"
	"time"

	"durassd/internal/freelist"
	"durassd/internal/ftl"
	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// ErrCacheDead reports an operation on a controller that lost power.
var ErrCacheDead = errors.New("core: controller lost power")

// ErrCommandTooLarge reports a write command larger than the cache.
var ErrCommandTooLarge = errors.New("core: write command exceeds cache size")

// Config tunes the cache controller.
type Config struct {
	// Frames is the number of cache frames; each holds one mapping unit
	// (4 KB). The paper's DuraSSD carries 512 MB of DRAM, most of it
	// mapping table; the write buffer itself is a few MB (§3.1.1).
	Frames int
	// Durable marks the cache capacitor-backed (DuraSSD). False models a
	// conventional volatile write cache (SSD-A / SSD-B).
	Durable bool
	// FlushWorkers is the number of concurrent write-back workers; it
	// bounds how much of the array's parallelism the flusher can use.
	FlushWorkers int
	// SlotAccess is the DRAM cost of staging or serving one slot.
	SlotAccess time.Duration
	// FlushAck is the fixed firmware cost of completing a flush-cache
	// command after the drain.
	FlushAck time.Duration
	// RebootRecharge is the capacitor recharge time before recovery starts.
	RebootRecharge time.Duration
}

// lpnQueue is a FIFO of LPNs with a compacting head index: popping advances
// head instead of reslicing, so the backing array is reused instead of
// leaking capacity at the front (which made append reallocate on every
// enqueue/dequeue cycle of the flush list). Amortized O(1), zero allocs in
// steady state.
type lpnQueue struct {
	buf  []storage.LPN
	head int
}

func (q *lpnQueue) push(l storage.LPN) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, l)
}

func (q *lpnQueue) len() int { return len(q.buf) - q.head }

func (q *lpnQueue) pop() storage.LPN {
	l := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return l
}

// at returns the i-th queued LPN in FIFO order (dump iteration).
func (q *lpnQueue) at(i int) storage.LPN { return q.buf[q.head+i] }

type frameState uint8

const (
	frameClean frameState = iota
	frameDirty            // queued for write-back
	frameBusy             // write-back in progress
)

type frame struct {
	lpn     storage.LPN
	data    []byte // latest host data; nil in timing-only mode
	state   frameState
	hasData bool           // distinguishes timing-only writes from zero pages
	redirty bool           // overwritten while busy; requeue after write-back
	origin  iotrace.Origin // origin of the latest staged copy
	readers int32          // parked readers holding a reference (not poolable)
}

// spareFrames holds the frame buffers of released controllers (see Release)
// for controllers in the process to take on a local miss.
var spareFrames = freelist.New[[]byte](256)

// Controller is the device cache controller described above.
type Controller struct {
	eng *sim.Engine
	f   *ftl.FTL
	cfg Config

	frames    map[storage.LPN]*frame
	framePool []*frame // recycled evicted frames (only ones with no parked readers)
	dirtyq    lpnQueue // FIFO flush list
	cleanq    lpnQueue // eviction order for clean frames (lazy)
	pinned    int      // frames in state dirty or busy (not evictable)
	reserved  int      // frames promised to commands still streaming in
	queued    int      // entries in dirtyq
	inFlush   int      // slots currently being programmed
	flushed   int64    // slots ever written back (flush-cache epoch counter)

	cutFrames map[storage.LPN]*frame // the frames at power failure, kept only for Release

	hasDirty *sim.Queue // flusher workers wait here
	space    *sim.Queue // writers stalled on a full cache
	drained  *sim.Queue // flush-cache commands wait here

	dead     bool
	readOnly bool // FTL degraded: writes fail typed, reads keep working

	reg   *iotrace.Registry
	stats *storage.Stats
}

// NewController builds a controller over f and starts its flush workers,
// counting into reg, the registry it shares with the owning device.
func NewController(f *ftl.FTL, cfg Config, reg *iotrace.Registry) *Controller {
	if cfg.Frames <= 0 || cfg.FlushWorkers <= 0 {
		panic("core: Frames and FlushWorkers must be positive")
	}
	eng := f.Array().Engine()
	c := &Controller{
		eng:      eng,
		f:        f,
		cfg:      cfg,
		frames:   make(map[storage.LPN]*frame),
		hasDirty: sim.NewQueue(eng),
		space:    sim.NewQueue(eng),
		drained:  sim.NewQueue(eng),
		reg:      reg,
		stats:    reg.Stats(),
	}
	for i := 0; i < cfg.FlushWorkers; i++ {
		eng.Go("flusher", c.flushWorker)
	}
	return c
}

// DropClean evicts lpn's frame if it is resident and clean, so the next
// read is served from flash. Returns false while the frame is dirty or
// busy (dropping it would lose acknowledged data). Fault-injection hook.
func (c *Controller) DropClean(lpn storage.LPN) bool {
	fr, ok := c.frames[lpn]
	if !ok {
		return true
	}
	if fr.state != frameClean || fr.redirty {
		return false
	}
	delete(c.frames, lpn)
	return true
}

// Write stages a write command's slots into the cache and returns once the
// command is complete (the DuraSSD durability point). The staging step
// itself is atomic: admission control and the DRAM copy happen before any
// frame is touched, so a power failure never leaves a command half-staged.
//
//simlint:hotpath
func (c *Controller) Write(p *sim.Proc, req iotrace.Req, slots []ftl.SlotWrite) error {
	if c.dead {
		return ErrCacheDead
	}
	if c.readOnly {
		return storage.ErrReadOnly
	}
	if len(slots) > c.cfg.Frames {
		return ErrCommandTooLarge
	}
	sp := req.Begin(p, iotrace.LayerCache)
	defer sp.End(p)
	// Admission control: wait until every new frame the command needs can
	// be taken without evicting dirty data (write stall, §2.3). The frames
	// are reserved before the DRAM transfer so concurrent commands cannot
	// oversubscribe the cache.
	var needNew int
	for {
		if c.dead {
			return ErrCacheDead
		}
		if c.readOnly {
			return storage.ErrReadOnly
		}
		needNew = 0
		for _, s := range slots {
			if _, ok := c.frames[s.LPN]; !ok {
				needNew++
			}
		}
		if c.pinned+c.reserved+needNew <= c.cfg.Frames {
			break
		}
		c.space.Wait(p)
	}
	c.reserved += needNew
	// DRAM transfer for the whole command.
	p.Sleep(time.Duration(len(slots)) * c.cfg.SlotAccess)
	c.reserved -= needNew
	if c.dead {
		return ErrPowerDuringWrite
	}
	if c.readOnly {
		return storage.ErrReadOnly // degraded mid-transfer: roll back
	}
	// Atomic staging: no virtual time passes below this line.
	for _, s := range slots {
		c.stage(s)
	}
	return nil
}

// ErrPowerDuringWrite reports that power failed while the command's data
// was still streaming into the cache; the command was rolled back.
var ErrPowerDuringWrite = errors.New("core: power failed before command completion; rolled back")

func (c *Controller) stage(s ftl.SlotWrite) {
	fr, ok := c.frames[s.LPN]
	if !ok {
		if len(c.frames) >= c.cfg.Frames {
			c.evictClean()
		}
		fr = c.getFrame(s.LPN)
		c.frames[s.LPN] = fr
	}
	if s.Data != nil {
		if fr.state == frameBusy {
			// The in-flight program batch aliases fr.data; overwriting it in
			// place would change the bytes mid-program. Give the new copy a
			// fresh buffer and let the old one go with the batch.
			fr.data = append([]byte(nil), s.Data...) //simlint:allow hotalloc busy-frame aliasing copy; only taken when a flush races the same LPN
		} else {
			if cap(fr.data) < len(s.Data) {
				fr.data = spareFrame(len(s.Data))
			}
			fr.data = append(fr.data[:0], s.Data...)
		}
	} else {
		fr.data = nil
	}
	fr.hasData = true
	fr.origin = s.Origin
	switch fr.state {
	case frameBusy:
		// The old copy is mid-program; requeue the new one afterwards.
		fr.redirty = true
		c.stats.CacheOverlaps++
	case frameDirty:
		// Still queued: the newer copy replaces the old in place — the old
		// version is never programmed, which is the endurance win of §3.1.1.
		c.stats.CacheOverlaps++
	default:
		fr.state = frameDirty
		c.pinned++
		c.enqueueDirty(s.LPN)
	}
}

func (c *Controller) enqueueDirty(lpn storage.LPN) {
	c.dirtyq.push(lpn)
	c.queued++
	c.hasDirty.WakeOne()
}

// getFrame returns a recycled frame (data buffer capacity preserved — the
// caller overwrites fr.data before any reader can see it) or a fresh one.
func (c *Controller) getFrame(lpn storage.LPN) *frame {
	if n := len(c.framePool); n > 0 {
		fr := c.framePool[n-1]
		c.framePool[n-1] = nil
		c.framePool = c.framePool[:n-1]
		data := fr.data
		*fr = frame{lpn: lpn, data: data[:0]}
		return fr
	}
	return &frame{lpn: lpn} //simlint:allow hotalloc pool miss fallback; steady state recycles pooled frames
}

// spareFrame returns a released controller's frame buffer with room for n
// bytes, or nil when there is none.
func spareFrame(n int) []byte {
	if b, ok := spareFrames.Get(); ok && cap(b) >= n {
		return b
	}
	return nil
}

// Release hands the buffers of the controller's frames — resident, pooled,
// and those it held when power failed — to the process-wide free list,
// where a controller built later takes them on a local miss. Call it only
// once the engine is closed: the controller must not be used again.
func (c *Controller) Release() {
	put := func(fr *frame) {
		if cap(fr.data) > 0 { // timing-only frames hold no buffer
			spareFrames.Put(fr.data[:0])
		}
	}
	for _, fr := range c.frames {
		put(fr)
	}
	for _, fr := range c.cutFrames {
		put(fr)
	}
	for _, fr := range c.framePool {
		put(fr)
	}
	c.frames, c.cutFrames, c.framePool = nil, nil, nil
}

// evictClean drops the oldest clean frame. Callers guarantee one exists.
// The frame is recycled only when no parked reader still holds it; pooling
// never changes which frame is evicted, so the schedule is unaffected.
func (c *Controller) evictClean() {
	for c.cleanq.len() > 0 {
		lpn := c.cleanq.pop()
		fr, ok := c.frames[lpn]
		if !ok || fr.state != frameClean {
			continue // stale queue entry
		}
		delete(c.frames, lpn)
		c.stats.CacheEvicts++
		if fr.readers == 0 && len(c.framePool) < 64 {
			c.framePool = append(c.framePool, fr)
		}
		return
	}
	panic("core: no clean frame to evict")
}

// Read serves one slot, from the cache when resident (device cache hit) or
// from flash otherwise.
//
//simlint:hotpath
func (c *Controller) Read(p *sim.Proc, req iotrace.Req, lpn storage.LPN, buf []byte) error {
	if c.dead {
		return ErrCacheDead
	}
	if fr, ok := c.frames[lpn]; ok {
		sp := req.Begin(p, iotrace.LayerCache)
		fr.readers++ // pin: frame may be evicted while we sleep
		p.Sleep(c.cfg.SlotAccess)
		fr.readers--
		sp.End(p)
		if c.dead {
			return ErrCacheDead
		}
		c.stats.CacheHits++
		if buf != nil {
			if fr.data != nil {
				copy(buf, fr.data)
			} else {
				for i := range buf {
					buf[i] = 0
				}
			}
		}
		return nil
	}
	return c.f.ReadSlot(p, req, lpn, buf)
}

// FlushCache executes the device flush-cache command: it drains every dirty
// frame to NAND. DuraSSD honors the command too — Table 1's "ON" row shows
// the durable drive crawling under per-write fsync just like the volatile
// ones; its advantage is that the host may safely *stop sending* the
// command (write barriers off, §2.2), because the capacitors already
// guarantee everything acknowledged. A volatile cache additionally journals
// the dirty mapping entries; DuraSSD's mapping table is capacitor-protected
// and skips that.
func (c *Controller) FlushCache(p *sim.Proc, req iotrace.Req) error {
	if c.dead {
		return ErrCacheDead
	}
	sp := req.Begin(p, iotrace.LayerFlushDrain)
	// Snapshot semantics: the command covers data dirty at its arrival;
	// writes arriving during the drain belong to the next flush. (Without
	// the epoch counter a steady writer stream would starve the flush.)
	target := c.flushed + int64(c.queued+c.inFlush)
	for c.flushed < target {
		if c.readOnly {
			// The flushers stopped; the remaining dirty frames cannot drain.
			sp.End(p)
			return storage.ErrReadOnly
		}
		c.drained.Wait(p)
		if c.dead {
			sp.End(p)
			return ErrCacheDead
		}
	}
	if c.cfg.Durable {
		p.Sleep(c.cfg.FlushAck)
		sp.End(p)
		return nil
	}
	sp.End(p)
	return c.f.FlushMapJournal(p, req)
}

// flushWorker continuously pulls write-backs from the flush list, pairing
// slots into full physical pages (§3.1.2's 4 KB-over-8 KB scheme).
func (c *Controller) flushWorker(p *sim.Proc) {
	// Per-worker scratch, reused across iterations: the FTL copies slot data
	// before its program completes, so nothing aliases these after Program
	// returns.
	var batch []*frame
	var slots []ftl.SlotWrite
	for {
		if c.dead {
			return
		}
		batch = c.takeBatch(batch[:0])
		if len(batch) == 0 {
			c.f.NotifyIdle() // idle device: let the scrubber patrol
			c.hasDirty.Wait(p)
			continue
		}
		slots = slots[:0]
		for _, fr := range batch {
			slots = append(slots, ftl.SlotWrite{LPN: fr.lpn, Data: fr.data, Origin: fr.origin})
		}
		// Write-backs run under a background request tagged with the first
		// frame's origin, so GC they trigger is charged to the database
		// mechanism whose pages filled the cache.
		req := c.reg.NewReq(p, iotrace.OpWriteback, batch[0].origin, uint64(batch[0].lpn), len(batch))
		err := c.f.Program(p, req, slots)
		req.Finish(p)
		c.completeBatch(batch, err == nil)
		if errors.Is(err, storage.ErrReadOnly) {
			// FTL degraded to read-only: writes are over, but the device is
			// not dead — reads (cache hits and flash) keep working. Wake
			// everyone stalled on flusher progress so they fail typed.
			if !c.readOnly {
				c.readOnly = true
				c.hasDirty.WakeAll()
				c.space.WakeAll()
				c.drained.WakeAll()
			}
			return
		}
		if err != nil {
			// Power failure or a fatal FTL error (e.g. out of space). Mark
			// the controller dead so stalled writers fail instead of
			// waiting forever on a flusher that no longer runs.
			if !c.dead {
				c.dead = true
				c.hasDirty.WakeAll()
				c.space.WakeAll()
				c.drained.WakeAll()
			}
			return
		}
	}
}

// takeBatch pops up to SlotsPerPage dirty frames from the flush list,
// appending them to the caller's scratch.
func (c *Controller) takeBatch(batch []*frame) []*frame {
	max := c.f.SlotsPerPage()
	for len(batch) < max && c.dirtyq.len() > 0 {
		lpn := c.dirtyq.pop()
		c.queued--
		fr, ok := c.frames[lpn]
		if !ok || fr.state != frameDirty {
			continue // superseded entry
		}
		fr.state = frameBusy
		c.inFlush++
		batch = append(batch, fr)
	}
	return batch
}

func (c *Controller) completeBatch(batch []*frame, ok bool) {
	for _, fr := range batch {
		c.inFlush--
		if !ok {
			// Program failed (power cut): leave the frame busy; the dump
			// or the loss accounting picks it up.
			continue
		}
		c.flushed++ // the staged version is on flash now
		if fr.redirty {
			fr.redirty = false
			fr.state = frameDirty
			c.enqueueDirty(fr.lpn)
			continue
		}
		fr.state = frameClean
		c.pinned--
		c.cleanq.push(fr.lpn)
	}
	if ok {
		c.space.WakeAll()
		c.drained.WakeAll()
	}
}

// PowerFail is called by the device on power-off detection. For a durable
// cache it runs the capacitor-powered dump; for a volatile cache it counts
// the lost pages. Either way the controller is dead afterwards.
func (c *Controller) PowerFail() {
	if c.dead {
		return
	}
	c.dead = true
	c.hasDirty.WakeAll()
	c.space.WakeAll()
	c.drained.WakeAll()

	if !c.cfg.Durable {
		for _, fr := range c.frames {
			if fr.state != frameClean || fr.redirty {
				c.stats.LostPages++
			}
		}
		c.frames, c.cutFrames = nil, c.frames
		return
	}
	c.dump()
}

// dump writes the modified mapping entries and every pinned frame to the
// dump area under capacitor power (instantaneous in virtual time: the host
// clock has stopped).
func (c *Controller) dump() {
	area := newDumpArea(c.f)

	// Mapping entries first: without them the buffered pages could not be
	// reintegrated idempotently. A program that fails with bad status (the
	// partial-dump fault: the dying supply tears the page) is retried on the
	// next pre-erased dump page while the area lasts — the margin the paper
	// sizes the dump area for. Every attempt takes a page of the area, so
	// the area bounds what the capacitors program.
	mapPages := c.f.MapJournalPages()
	for done := 0; done < mapPages; {
		if area.programMapPage() {
			done++
			c.stats.DumpPages++
		} else if area.capacity() == 0 {
			break
		} else {
			c.stats.DumpRetries++
		}
	}
	c.f.ClearMapDirty()

	// Buffer pool in flush-list order, then remaining pinned frames.
	var pending []ftl.SlotWrite
	flushPage := func() bool {
		if len(pending) == 0 {
			return true
		}
		for !area.programSlots(pending) {
			if area.capacity() == 0 {
				return false
			}
			c.stats.DumpRetries++ // torn dump page: retry on the next one
		}
		c.stats.DumpPages++
		pending = nil
		return true
	}
	seen := make(map[storage.LPN]bool)
	emit := func(fr *frame) bool {
		if fr == nil || seen[fr.lpn] || (fr.state == frameClean && !fr.redirty) {
			return true
		}
		seen[fr.lpn] = true
		pending = append(pending, ftl.SlotWrite{LPN: fr.lpn, Data: fr.data})
		if len(pending) == c.f.SlotsPerPage() {
			return flushPage()
		}
		return true
	}
	ok := true
	for i := 0; i < c.dirtyq.len(); i++ {
		if !emit(c.frames[c.dirtyq.at(i)]) {
			ok = false
			break
		}
	}
	if ok {
		// Busy frames are not on the queue; dump them in LPN-stable order
		// via the clean queue trick is impossible, so walk the flush list
		// first and sweep the rest deterministically by LPN.
		rest := make([]storage.LPN, 0)
		for lpn, fr := range c.frames {
			if !seen[lpn] && (fr.state != frameClean || fr.redirty) {
				rest = append(rest, lpn)
			}
		}
		slices.Sort(rest)
		for _, lpn := range rest {
			if !emit(c.frames[lpn]) {
				ok = false
				break
			}
		}
	}
	if ok && !flushPage() {
		ok = false
	}
	if !ok {
		// Dump area exhausted: remaining pinned frames are lost.
		for lpn, fr := range c.frames {
			if !seen[lpn] && (fr.state != frameClean || fr.redirty) {
				c.stats.LostPages++
			}
		}
		c.stats.LostPages += int64(len(pending))
	}
	c.frames, c.cutFrames = nil, c.frames
}
