// Package ftl implements a page-mapping flash translation layer over a
// nand.Array.
//
// Following the paper (§3.1.2), the FTL maps logical pages at a 4 KB
// granularity onto 8 KB physical NAND pages: each physical page holds
// SlotsPerPage logical slots, and the device cache tries to pair two 4 KB
// writes into one program. The FTL also provides greedy garbage collection
// with plane-local relocation, a mapping-table journal whose flush cost is
// charged on flush-cache (volatile devices) and never (durable cache), and
// a reserved, always-erased dump area for the DuraSSD power-failure dump.
package ftl

import (
	"errors"
	"fmt"
	"math"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/nand"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// SPN is a slot page number: physical page number × SlotsPerPage + slot
// index. It is the value stored in the mapping table.
type SPN uint64

// The mapping table stores SPNs in 32 bits (New rejects a geometry with
// more physical slots), with unmapped marking an LPN that has none. It has
// two levels: LPN/mapChunk picks a chunk of mapChunk entries, allocated on
// the first mapping into it, so a host that touches a few regions of the
// device keeps a few chunks rather than a table of its whole capacity.
const (
	unmapped = ^uint32(0)
	mapChunk = 1024
)

// ErrNoSpace reports that garbage collection could not reclaim a block.
var ErrNoSpace = errors.New("ftl: out of space")

// Config tunes the translation layer.
type Config struct {
	// SlotsPerPage is physical page size / mapping unit (2 in the paper:
	// 4 KB mapping over 8 KB NAND pages). Must divide the page size.
	SlotsPerPage int
	// OverProvisionPct is the percentage of slots hidden from the logical
	// space to keep GC effective (enterprise drives use ~7–28%).
	OverProvisionPct int
	// GCThresholdBlocks is the per-plane free-block low watermark that
	// triggers foreground garbage collection. Must be >= 2 so relocation
	// always has a destination.
	GCThresholdBlocks int
	// DumpBlocks reserves this many erased blocks (spread across planes)
	// for the DuraSSD power-failure dump area. Zero for volatile devices.
	DumpBlocks int
	// MapEntryBytes is the size of one mapping entry in the on-flash
	// journal (4 bytes in the paper for a 480 GB drive).
	MapEntryBytes int
	// EagerMapping updates the mapping table before the cell program
	// completes, the behaviour of the commercial volatile-cache SSDs in the
	// FAST'13 power-fault study the paper cites: a power cut mid-program
	// leaves the mapping pointing at a shorn (torn) page, exposing the
	// corruption to the host. DuraSSD uses lazy mapping (false): a torn
	// page is never referenced, and the durable cache replays the write.
	EagerMapping bool

	// Media-error handling knobs (see media.go). All zeros = legacy
	// behavior: no retries, no refresh, no retirement, no scrubbing.

	// ReadRetries bounds the read-retry attempts after an uncorrectable
	// first read. Each retry re-reads with a shifted reference voltage.
	ReadRetries int
	// RetryBackoff is the extra wait before retry attempt k (charged
	// k × RetryBackoff: a bounded linear backoff).
	RetryBackoff time.Duration
	// RefreshThreshold rewrites a page to a fresh location when a read had
	// to correct at least this many bits (0 disables).
	RefreshThreshold int
	// ReserveBlocks withholds this many blocks per plane as the bad-block
	// reserve pool. Retired blocks (uncorrectable pages) are replaced from
	// the reserve; when it runs dry the device degrades to read-only
	// instead of risking data loss. Zero disables retirement.
	ReserveBlocks int
	// ScrubInterval enables the background scrubber: a patrol pass over
	// pages older than the interval runs at most once per interval,
	// refreshing high-error pages before they decay past the ECC limit.
	// Zero disables the scrubber.
	ScrubInterval time.Duration
}

// DefaultConfig returns the paper's configuration: 4 KB mapping units over
// the array's physical page size.
func DefaultConfig(physPageSize int) Config {
	return Config{
		SlotsPerPage:      physPageSize / (4 * storage.KB),
		OverProvisionPct:  12,
		GCThresholdBlocks: 2,
		DumpBlocks:        0,
		MapEntryBytes:     4,
	}
}

// SlotWrite is one logical slot to program.
type SlotWrite struct {
	LPN    storage.LPN
	Data   []byte // SlotSize bytes, or nil for timing-only
	Origin iotrace.Origin
	from   SPN // a relocated slot's source SPN + 1; 0 for a host write
}

// FTL is a page-mapping flash translation layer.
type FTL struct {
	a   *nand.Array
	cfg Config

	mapTab     []*[mapChunk]uint32 // LPN -> SPN, or unmapped; nil chunk: all unmapped
	validCount []int               // live slots per global block
	planeFree  [][]int             // erased block ids per plane
	active     []int               // active (partially written) block per plane, -1 if none
	writePtr   []int               // next page index within the active block
	nextPlane  int                 // round-robin program cursor

	dumpBlocks      []int
	dumpSet         map[int]bool
	dirtyMapEntries int64
	logicalSlots    int64
	liveSlots       int64

	gcLocks []*sim.Resource // per-plane GC locks (concurrent GC across planes)
	gcTemp  []gcScratch     // per-plane relocation scratch, used under the plane's GC lock

	reserve   [][]int       // per-plane bad-block reserve pool
	retired   map[int]bool  // blocks removed from service (media damage)
	readOnly  bool          // reserve pool exhausted: degraded to read-only
	scrubWake *sim.Queue    // scrubber wakeup (nil when disabled)
	lastScrub time.Duration // virtual time the last patrol pass started

	reg   *iotrace.Registry
	stats *storage.Stats
	// relocStale counts relocated copies dropped because a newer write moved
	// their LPN first. It stays out of Stats, whose every field feeds
	// cmd/bench's fio digest.
	relocStale int64

	// Program-path scratch pools. A program holds its tag slice and page
	// buffer exclusively from get to put (the NAND array copies both at
	// commit), so concurrent flusher workers simply draw distinct buffers.
	tagPool  [][]nand.SlotTag
	pagePool [][]byte
	slotPool [][]byte // slot-size relocation buffers (GC / scrub / refresh)
}

func (f *FTL) getTags(n int) []nand.SlotTag {
	if last := len(f.tagPool) - 1; last >= 0 {
		t := f.tagPool[last]
		f.tagPool[last] = nil
		f.tagPool = f.tagPool[:last]
		if cap(t) >= n {
			t = t[:n]
			for i := range t {
				t[i] = nand.SlotTag{}
			}
			return t
		}
	}
	return make([]nand.SlotTag, n) //simlint:allow hotalloc pool miss fallback; steady state recycles pooled slices
}

func (f *FTL) putTags(t []nand.SlotTag) {
	if cap(t) == 0 || len(f.tagPool) >= 64 {
		return
	}
	f.tagPool = append(f.tagPool, t[:0])
}

// getPage returns a page-size buffer with unspecified contents: program
// paths zero exactly the slot gaps they leave, and read paths hand it to
// ReadPageRetry, which overwrites the full page.
func (f *FTL) getPage() []byte {
	if last := len(f.pagePool) - 1; last >= 0 {
		b := f.pagePool[last]
		f.pagePool[last] = nil
		f.pagePool = f.pagePool[:last]
		return b
	}
	return make([]byte, f.a.Config().PageSize) //simlint:allow hotalloc pool miss fallback; steady state recycles pooled slices
}

func (f *FTL) putPage(b []byte) {
	if b == nil || len(f.pagePool) >= 64 {
		return
	}
	f.pagePool = append(f.pagePool, b)
}

// getSlotBuf returns a slot-size buffer for relocation copies.
func (f *FTL) getSlotBuf() []byte {
	if last := len(f.slotPool) - 1; last >= 0 {
		b := f.slotPool[last]
		f.slotPool[last] = nil
		f.slotPool = f.slotPool[:last]
		return b[:0]
	}
	return make([]byte, 0, f.SlotSize()) //simlint:allow hotalloc pool miss fallback; steady state recycles pooled slices
}

func (f *FTL) putSlotBuf(b []byte) {
	if cap(b) == 0 || len(f.slotPool) >= 256 {
		return
	}
	f.slotPool = append(f.slotPool, b[:0])
}

// gcScratch is one plane's relocation scratch.
type gcScratch struct {
	batch []SlotWrite
	live  []int
}

// recycleBatch returns the relocation buffers of a just-programmed batch
// to the slot pool and truncates the batch for reuse.
func (f *FTL) recycleBatch(batch []SlotWrite) []SlotWrite {
	for i := range batch {
		if batch[i].Data != nil {
			f.putSlotBuf(batch[i].Data)
		}
		batch[i] = SlotWrite{}
	}
	return batch[:0]
}

// New builds an FTL over the array, counting into reg, the registry it
// shares with the owning device. All blocks start erased.
func New(a *nand.Array, cfg Config, reg *iotrace.Registry) (*FTL, error) {
	ncfg := a.Config()
	if cfg.SlotsPerPage <= 0 || ncfg.PageSize%cfg.SlotsPerPage != 0 {
		return nil, fmt.Errorf("ftl: invalid SlotsPerPage %d for page size %d", cfg.SlotsPerPage, ncfg.PageSize)
	}
	if cfg.GCThresholdBlocks < 2 {
		return nil, fmt.Errorf("ftl: GCThresholdBlocks must be >= 2, got %d", cfg.GCThresholdBlocks)
	}
	if cfg.MapEntryBytes <= 0 {
		return nil, fmt.Errorf("ftl: MapEntryBytes must be positive, got %d", cfg.MapEntryBytes)
	}
	if slots := ncfg.Pages() * int64(cfg.SlotsPerPage); slots > math.MaxUint32 {
		return nil, fmt.Errorf("ftl: %d physical slots overflow the 32-bit mapping table", slots)
	}
	planes := ncfg.Planes()
	if cfg.DumpBlocks >= planes*(ncfg.BlocksPerPlane-cfg.GCThresholdBlocks-1) {
		return nil, fmt.Errorf("ftl: DumpBlocks %d leaves no usable space", cfg.DumpBlocks)
	}
	if cfg.ReserveBlocks < 0 ||
		(cfg.ReserveBlocks > 0 && cfg.DumpBlocks/planes+cfg.ReserveBlocks >= ncfg.BlocksPerPlane-cfg.GCThresholdBlocks-1) {
		return nil, fmt.Errorf("ftl: ReserveBlocks %d leaves no usable space", cfg.ReserveBlocks)
	}
	f := &FTL{
		a:          a,
		cfg:        cfg,
		validCount: make([]int, ncfg.Blocks()),
		planeFree:  make([][]int, planes),
		active:     make([]int, planes),
		writePtr:   make([]int, planes),
		dumpSet:    make(map[int]bool),
		reserve:    make([][]int, planes),
		retired:    make(map[int]bool),
		reg:        reg,
		stats:      reg.Stats(),
	}
	f.gcLocks = make([]*sim.Resource, planes)
	f.gcTemp = make([]gcScratch, planes)
	for i := range f.gcLocks {
		f.gcLocks[i] = sim.NewResource(a.Engine(), 1)
	}
	for pl := 0; pl < planes; pl++ {
		f.active[pl] = -1
		for b := 0; b < ncfg.BlocksPerPlane; b++ {
			f.planeFree[pl] = append(f.planeFree[pl], a.BlockOfPlane(pl, b))
		}
	}
	// Reserve dump blocks round-robin across planes so the power-failure
	// dump itself enjoys full parallelism.
	for i := 0; i < cfg.DumpBlocks; i++ {
		pl := i % planes
		free := f.planeFree[pl]
		blk := free[len(free)-1]
		f.planeFree[pl] = free[:len(free)-1]
		f.dumpBlocks = append(f.dumpBlocks, blk)
		f.dumpSet[blk] = true
	}
	// Carve the bad-block reserve pool from each plane's free tail. Reserve
	// blocks are invisible to allocation and GC until a retirement promotes
	// them into the plane's free list.
	for pl := 0; pl < planes && cfg.ReserveBlocks > 0; pl++ {
		free := f.planeFree[pl]
		n := len(free) - cfg.ReserveBlocks
		f.reserve[pl] = append([]int(nil), free[n:]...)
		f.planeFree[pl] = free[:n]
	}
	totalSlots := (int64(ncfg.Blocks()) - int64(cfg.DumpBlocks) - int64(planes*cfg.ReserveBlocks)) *
		int64(ncfg.PagesPerBlock) * int64(cfg.SlotsPerPage)
	f.logicalSlots = totalSlots * int64(100-cfg.OverProvisionPct) / 100
	f.mapTab = make([]*[mapChunk]uint32, (f.logicalSlots+mapChunk-1)/mapChunk)
	return f, nil
}

// SlotSize returns the mapping unit in bytes.
func (f *FTL) SlotSize() int { return f.a.Config().PageSize / f.cfg.SlotsPerPage }

// SlotsPerPage returns the number of logical slots per physical page.
func (f *FTL) SlotsPerPage() int { return f.cfg.SlotsPerPage }

// LogicalSlots returns the exported capacity in mapping units.
func (f *FTL) LogicalSlots() int64 { return f.logicalSlots }

// MapJournalPages returns how many physical pages the dirty mapping entries
// occupy when journaled or dumped.
func (f *FTL) MapJournalPages() int {
	bytes := f.dirtyMapEntries * int64(f.cfg.MapEntryBytes)
	return int((bytes + int64(f.a.Config().PageSize) - 1) / int64(f.a.Config().PageSize))
}

// DumpBlockIDs returns the reserved dump-area block ids.
func (f *FTL) DumpBlockIDs() []int { return append([]int(nil), f.dumpBlocks...) }

// Array returns the underlying NAND array.
func (f *FTL) Array() *nand.Array { return f.a }

// Registry returns the metrics registry shared with the owning device.
func (f *FTL) Registry() *iotrace.Registry { return f.reg }

// spnAt returns the SPN of sub-slot si of ppn.
func (f *FTL) spnAt(ppn nand.PPN, si int) SPN {
	return SPN(uint64(ppn)*uint64(f.cfg.SlotsPerPage) + uint64(si))
}

func (f *FTL) spnOf(lpn storage.LPN) (SPN, bool) {
	if int64(lpn) >= f.logicalSlots {
		return 0, false
	}
	c := f.mapTab[lpn/mapChunk]
	if c == nil {
		return 0, false
	}
	spn := c[lpn%mapChunk]
	return SPN(spn), spn != unmapped
}

// mapEntry returns lpn's mapping-table entry, allocating its chunk on the
// chunk's first mapping.
func (f *FTL) mapEntry(lpn storage.LPN) *uint32 {
	c := f.mapTab[lpn/mapChunk]
	if c == nil {
		c = new([mapChunk]uint32) //simlint:allow hotalloc first mapping into a chunk of the table; kept for the device's life
		for i := range c {
			c[i] = unmapped
		}
		f.mapTab[lpn/mapChunk] = c
	}
	return &c[lpn%mapChunk]
}

// ReadSlot reads the 4 KB slot of lpn. If buf is non-nil it must be
// SlotSize bytes; unmapped or timing-only slots read back zeroed. Reading an
// unmapped slot costs no device time (the controller answers from the map).
//
//simlint:hotpath
func (f *FTL) ReadSlot(p *sim.Proc, req iotrace.Req, lpn storage.LPN, buf []byte) error {
	if int64(lpn) >= f.logicalSlots {
		return storage.ErrOutOfRange
	}
	sp := req.Begin(p, iotrace.LayerFTL)
	defer sp.End(p)
	spn, ok := f.spnOf(lpn)
	if !ok {
		zero(buf)
		return nil
	}
	ppn := nand.PPN(spn / SPN(f.cfg.SlotsPerPage))
	sub := int(spn % SPN(f.cfg.SlotsPerPage))
	var page []byte
	if buf != nil {
		page = f.getPage()
		defer f.putPage(page)
	}
	info, err := f.readPagePhys(p, req, ppn, page)
	if err != nil {
		if errors.Is(err, storage.ErrUncorrectable) {
			f.stats.UncorrectableReads++
			f.noteUncorrectable(p, req, ppn)
		}
		return err
	}
	if buf != nil {
		copy(buf, page[sub*f.SlotSize():(sub+1)*f.SlotSize()])
	}
	f.maybeRefresh(p, req, ppn, info)
	return nil
}

// Program writes up to SlotsPerPage logical slots as a single NAND program,
// running garbage collection first if the target plane is low on space.
// Duplicate LPNs within one call are not allowed. A device degraded to
// read-only (bad-block reserve exhausted) fails with storage.ErrReadOnly.
//
//simlint:hotpath
func (f *FTL) Program(p *sim.Proc, req iotrace.Req, slots []SlotWrite) error {
	if f.readOnly {
		return storage.ErrReadOnly
	}
	return f.programAt(p, req, slots, -1, false)
}

// programAt programs slots on the given plane (-1 = round-robin). GC
// relocations pin to the victim's plane and skip the GC trigger.
func (f *FTL) programAt(p *sim.Proc, req iotrace.Req, slots []SlotWrite, pl int, gc bool) error {
	if len(slots) == 0 || len(slots) > f.cfg.SlotsPerPage {
		return fmt.Errorf("ftl: program of %d slots (max %d)", len(slots), f.cfg.SlotsPerPage) //simlint:allow hotalloc error construction on a rejected program; never taken at steady state
	}
	for _, s := range slots {
		if int64(s.LPN) >= f.logicalSlots {
			return storage.ErrOutOfRange
		}
	}
	sp := req.Begin(p, iotrace.LayerFTL)
	defer sp.End(p)
	if pl < 0 {
		pl = f.pickPlane()
	}
	if !gc {
		if err := f.ensureFree(p, req, pl); err != nil {
			return err
		}
	}
	ppn, err := f.nextPage(pl)
	if err != nil {
		return err
	}
	tags := f.getTags(len(slots))
	defer f.putTags(tags)
	var data []byte
	for i, s := range slots {
		tags[i] = nand.SlotTag{LPN: s.LPN}
		if s.Data != nil && data == nil {
			data = f.getPage()
		}
	}
	if data != nil {
		defer f.putPage(data)
		ss := f.SlotSize()
		for i, s := range slots {
			dst := data[i*ss : (i+1)*ss]
			if s.Data != nil {
				copy(dst, s.Data)
			} else {
				zero(dst) // timing-only slot sharing a page with real bytes
			}
		}
		data = data[:len(slots)*ss] // a short batch programs a short image
	}
	if f.cfg.EagerMapping {
		f.commitMapping(ppn, slots)
	}
	if err := f.a.ProgramPage(p, req, ppn, tags, data, false); err != nil {
		return err
	}
	if !f.cfg.EagerMapping {
		f.commitMapping(ppn, slots)
	}
	if gc {
		f.stats.GCPrograms++
	}
	// Attribute each programmed slot to its database-level origin. GC
	// relocations are charged to the origin that triggered the collection,
	// per the paper's question "who caused this NAND traffic?".
	for _, s := range slots {
		o := s.Origin
		if gc {
			o = req.Origin
			f.reg.AddOriginGC(o, 1)
		}
		f.reg.AddOriginNAND(o, 1)
	}
	return nil
}

// commitMapping points each slot's LPN at its place in ppn. A relocated
// slot commits only while the map still names its source: if a host write
// moved the LPN while the copy was in flight, the copy is dead on arrival
// and committing it would roll the acknowledged write back.
func (f *FTL) commitMapping(ppn nand.PPN, slots []SlotWrite) {
	blk := f.a.BlockOf(ppn)
	for i, s := range slots {
		e := f.mapEntry(s.LPN)
		old := *e
		if s.from != 0 && old != uint32(s.from-1) {
			f.relocStale++
			continue
		}
		if old != unmapped {
			f.validCount[int(old)/f.cfg.SlotsPerPage/f.a.Config().PagesPerBlock]--
		} else {
			f.liveSlots++
		}
		*e = uint32(f.spnAt(ppn, i))
		f.validCount[blk]++
		f.dirtyMapEntries++
	}
}

// pickPlane advances the round-robin program cursor.
func (f *FTL) pickPlane() int {
	pl := f.nextPlane
	f.nextPlane = (f.nextPlane + 1) % len(f.planeFree)
	return pl
}

// nextPage returns the next erased page of the plane's active block,
// opening the oldest block of the free list when needed.
func (f *FTL) nextPage(pl int) (nand.PPN, error) {
	ncfg := f.a.Config()
	if f.active[pl] == -1 || f.writePtr[pl] >= ncfg.PagesPerBlock {
		free := f.planeFree[pl]
		if len(free) == 0 {
			return 0, ErrNoSpace
		}
		f.active[pl] = free[0]
		f.planeFree[pl] = append(free[:0], free[1:]...) //simlint:allow hotalloc removes one element in place; capacity never grows
		f.writePtr[pl] = 0
	}
	ppn := f.a.PageOfBlock(f.active[pl]) + nand.PPN(f.writePtr[pl])
	f.writePtr[pl]++
	return ppn, nil
}

// NotifyIdle wakes the media scrubber (devices call it when their write
// queues drain).
func (f *FTL) NotifyIdle() {
	if f.scrubWake != nil {
		f.scrubWake.WakeOne()
	}
}

// ensureFree runs greedy garbage collection on the plane until its free
// list is back above the low watermark. GC is serialized per plane, so
// concurrent flusher workers never pick the same victim but different
// planes collect in parallel.
func (f *FTL) ensureFree(p *sim.Proc, req iotrace.Req, pl int) error {
	for len(f.planeFree[pl]) < f.cfg.GCThresholdBlocks {
		if f.readOnly {
			return storage.ErrReadOnly
		}
		f.gcLocks[pl].Acquire(p, 1)
		var err error
		if len(f.planeFree[pl]) < f.cfg.GCThresholdBlocks { // recheck under lock
			err = f.gcOnce(p, req, pl)
		}
		f.gcLocks[pl].Release(1)
		if err == ErrNoSpace && len(f.planeFree[pl]) > 0 {
			// Nothing reclaimable (every block fully live — e.g. an
			// append-only workload before its first wrap), but erased
			// blocks remain: let the write dip into the GC reserve rather
			// than failing a device that still has room.
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// gcOnce relocates the live slots of the plane's emptiest closed block and
// erases it.
func (f *FTL) gcOnce(p *sim.Proc, req iotrace.Req, pl int) error {
	sp := req.Begin(p, iotrace.LayerGC)
	defer sp.End(p)
	ncfg := f.a.Config()
	victim, victimValid := -1, int(^uint(0)>>1)
	for b := 0; b < ncfg.BlocksPerPlane; b++ {
		blk := f.a.BlockOfPlane(pl, b)
		if blk == f.active[pl] || f.dumpSet[blk] || f.retired[blk] || f.isFree(pl, blk) || f.inReserve(pl, blk) {
			continue
		}
		if f.validCount[blk] < victimValid {
			victim, victimValid = blk, f.validCount[blk]
		}
	}
	if victim == -1 {
		return ErrNoSpace
	}
	// Relocating must gain at least one page, or GC would churn forever on
	// an (almost) fully-live plane.
	relocPages := (victimValid + f.cfg.SlotsPerPage - 1) / f.cfg.SlotsPerPage
	if relocPages >= ncfg.PagesPerBlock {
		return ErrNoSpace // no reclaimable space anywhere in this plane
	}

	unreadable, err := f.relocate(p, req, victim, pl)
	if err != nil {
		return err
	}
	if unreadable {
		// Erasing the victim would turn a typed media error into silent
		// data loss: retire it in place instead.
		f.reg.Emit(iotrace.EvRetireStart, f.a.Engine().Now())
		f.retireBlock(pl, victim)
		f.reg.Emit(iotrace.EvRetireEnd, f.a.Engine().Now())
		return nil
	}
	if err := f.a.EraseBlock(p, req, victim); err != nil {
		return err
	}
	f.validCount[victim] = 0
	f.planeFree[pl] = append(f.planeFree[pl], victim)
	return nil
}

// relocate copies every readable live slot of blk into plane pl's write
// stream, pairing slots into full pages. A page that cannot be read is
// skipped and reported as unreadable: its slots stay mapped to blk, so host
// reads keep failing typed until the host rewrites them. The caller holds
// the plane's GC lock, which makes the plane's scratch its own.
func (f *FTL) relocate(p *sim.Proc, req iotrace.Req, blk, pl int) (unreadable bool, err error) { //simlint:allow hotalloc GC batch buffers are amortized across a whole block relocation
	tmp := &f.gcTemp[pl]
	batch, live := tmp.batch[:0], tmp.live[:0]
	var page []byte
	defer func() {
		f.putPage(page)
		tmp.batch, tmp.live = batch[:0], live[:0]
	}()
	first := f.a.PageOfBlock(blk)
	for i := 0; i < f.a.Config().PagesPerBlock; i++ {
		ppn := first + nand.PPN(i)
		// Torn slots that are still mapped must be relocated as-is:
		// the host sees the garbage until it rewrites the page.
		if live = f.liveSubs(live[:0], ppn); len(live) == 0 {
			continue
		}
		var buf []byte
		if f.a.Data(ppn) != nil {
			if page == nil {
				page = f.getPage()
			}
			buf = page
		}
		if _, err := f.readPagePhys(p, req, ppn, buf); err != nil {
			if !errors.Is(err, storage.ErrUncorrectable) {
				return unreadable, err
			}
			unreadable = true
			continue
		}
		for _, si := range live {
			batch = append(batch, f.relocation(ppn, si, buf))
			if len(batch) == f.cfg.SlotsPerPage {
				if err := f.programAt(p, req, batch, pl, true); err != nil {
					return unreadable, err
				}
				batch = f.recycleBatch(batch)
			}
		}
	}
	if len(batch) > 0 {
		if err := f.programAt(p, req, batch, pl, true); err != nil {
			return unreadable, err
		}
		batch = f.recycleBatch(batch)
	}
	return unreadable, nil
}

// relocation returns the write that copies sub-slot si of ppn, whose page
// image is page (nil for a timing-only page).
func (f *FTL) relocation(ppn nand.PPN, si int, page []byte) SlotWrite {
	var d []byte
	if page != nil {
		ss := f.SlotSize()
		d = append(f.getSlotBuf(), page[si*ss:(si+1)*ss]...)
	}
	return SlotWrite{LPN: f.a.Meta(ppn).Slots[si].LPN, Data: d, from: f.spnAt(ppn, si) + 1}
}

// inReserve reports whether blk is parked in the plane's bad-block
// reserve pool. Reserve blocks are invisible to GC and allocation until a
// retirement promotes them; erasing one as a zero-valid "victim" would put
// it in the free list while it still sits in the pool, and a later
// promotion would then hand the same block out twice.
func (f *FTL) inReserve(pl, blk int) bool {
	for _, b := range f.reserve[pl] {
		if b == blk {
			return true
		}
	}
	return false
}

func (f *FTL) isFree(pl, blk int) bool {
	for _, b := range f.planeFree[pl] {
		if b == blk {
			return true
		}
	}
	return false
}

// FlushMapJournal programs the dirty mapping entries to flash as journal
// pages (no live slots; GC reclaims them). Volatile-cache devices pay this
// on every flush-cache command; DuraSSD never does, because the mapping
// table sits in the capacitor-protected cache (paper §2.3).
func (f *FTL) FlushMapJournal(p *sim.Proc, req iotrace.Req) error {
	if f.dirtyMapEntries == 0 {
		return nil
	}
	if f.readOnly {
		return storage.ErrReadOnly
	}
	sp := req.Begin(p, iotrace.LayerFTL)
	defer sp.End(p)
	bytes := f.dirtyMapEntries * int64(f.cfg.MapEntryBytes)
	pages := int((bytes + int64(f.a.Config().PageSize) - 1) / int64(f.a.Config().PageSize))
	for i := 0; i < pages; i++ {
		pl := f.pickPlane()
		if err := f.ensureFree(p, req, pl); err != nil {
			return err
		}
		ppn, err := f.nextPage(pl)
		if err != nil {
			return err
		}
		if err := f.a.ProgramPage(p, req, ppn, nil, nil, false); err != nil {
			return err
		}
		f.stats.MapFlushPages++
	}
	f.dirtyMapEntries = 0
	return nil
}

// ClearMapDirty marks the mapping journal clean without I/O. The DuraSSD
// recovery manager uses it after dumping modified entries under capacitor
// power.
func (f *FTL) ClearMapDirty() { f.dirtyMapEntries = 0 }

// LoadSlots installs logical slots instantly (no virtual time), for
// preconditioning devices and bulk-loading databases before a measured run.
func (f *FTL) LoadSlots(slots []SlotWrite) error {
	ss := f.SlotSize()
	// The array copies a program's tags and data, so one of each serves every page.
	var tags []nand.SlotTag
	var page []byte
	for start := 0; start < len(slots); start += f.cfg.SlotsPerPage {
		end := start + f.cfg.SlotsPerPage
		if end > len(slots) {
			end = len(slots)
		}
		group := slots[start:end]
		pl := f.pickPlane()
		if len(f.planeFree[pl]) < f.cfg.GCThresholdBlocks {
			return ErrNoSpace // bulk load must fit without GC
		}
		ppn, err := f.nextPage(pl)
		if err != nil {
			return err
		}
		tags = tags[:0]
		var data []byte
		for _, s := range group {
			if int64(s.LPN) >= f.logicalSlots {
				return storage.ErrOutOfRange
			}
			tags = append(tags, nand.SlotTag{LPN: s.LPN})
			if s.Data != nil && data == nil {
				if page == nil {
					page = make([]byte, f.a.Config().PageSize)
				}
				data = page[:len(group)*ss]
				clear(data)
			}
		}
		if data != nil {
			for i, s := range group {
				if s.Data != nil {
					copy(data[i*ss:(i+1)*ss], s.Data)
				}
			}
		}
		if err := f.a.ProgramPageInstant(ppn, tags, data, false); err != nil {
			return err
		}
		f.commitMapping(ppn, group)
	}
	return nil
}

// CheckInvariants verifies mapping/accounting consistency; tests call it
// after randomized workloads.
func (f *FTL) CheckInvariants() error {
	ncfg := f.a.Config()
	recount := make([]int, ncfg.Blocks())
	var live int64
	for lpn := int64(0); lpn < f.logicalSlots; lpn++ {
		spn, ok := f.spnOf(storage.LPN(lpn))
		if !ok {
			continue
		}
		live++
		ppn := nand.PPN(spn / SPN(f.cfg.SlotsPerPage))
		sub := int(spn % SPN(f.cfg.SlotsPerPage))
		if f.a.State(ppn) != nand.PageValid {
			return fmt.Errorf("ftl: lpn %d maps to non-valid page %d", lpn, ppn)
		}
		meta := f.a.Meta(ppn)
		if meta == nil || sub >= len(meta.Slots) || meta.Slots[sub].LPN != storage.LPN(lpn) {
			return fmt.Errorf("ftl: lpn %d OOB mismatch at ppn %d slot %d", lpn, ppn, sub)
		}
		recount[f.a.BlockOf(ppn)]++
	}
	if live != f.liveSlots {
		return fmt.Errorf("ftl: live slots %d, counter says %d", live, f.liveSlots)
	}
	for blk, want := range recount {
		if f.validCount[blk] != want {
			return fmt.Errorf("ftl: block %d valid count %d, recount %d", blk, f.validCount[blk], want)
		}
	}
	return nil
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
