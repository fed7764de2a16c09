// Package nand models an array of NAND flash memory chips: the persistent
// medium inside every simulated SSD.
//
// The array reproduces the structural properties the paper's results depend
// on: multi-channel / multi-plane parallelism (paper §2.3: up to
// channels × packages × chips × planes concurrent operations), the latency
// gap between page reads and page programs, and erase-before-rewrite
// semantics. Page contents and out-of-band (OOB) metadata are stored so
// higher layers can implement recovery scans and torn-write detection with
// real bytes. A page stores only the bytes its program
// carried — a program whose slots fill part of a page keeps a short image,
// and reads zero-fill the rest — and its ECC parity is not stored at all:
// stored images never change, so a read that finds media damage encodes the
// zero-extended image then, and gets the parity the program would have.
//
// An Array is the durable object in a power-failure experiment: SSD
// controllers are discarded and rebuilt across power cycles, the Array
// persists.
package nand

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"time"

	"durassd/internal/freelist"
	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// PPN is a physical page number within an Array.
type PPN uint64

// InvalidPPN marks an unmapped physical page slot.
const InvalidPPN = PPN(1<<64 - 1)

// Config describes the geometry and timing of a NAND array.
type Config struct {
	Channels           int // independent buses to the controller
	PackagesPerChannel int
	ChipsPerPackage    int
	PlanesPerChip      int
	BlocksPerPlane     int
	PagesPerBlock      int
	PageSize           int // physical page size in bytes (8 KB in the paper)

	ReadLatency    time.Duration // cell-to-register page read
	ProgramLatency time.Duration // register-to-cell page program
	EraseLatency   time.Duration // block erase
	ChannelMBps    int           // channel bus bandwidth, MiB/s
	CmdOverhead    time.Duration // fixed per-operation channel occupancy

	// Media parameterizes the bit-error model (retention). The zero value
	// is ideal media.
	Media MediaConfig
}

// EnterpriseConfig returns a geometry resembling the paper's 480 GB
// enterprise SATA drive, scaled down by `scale` (1 = ~4 GiB of flash for
// simulation tractability; larger values shrink further). Parallelism
// (channels × planes) is preserved; only capacity shrinks.
func EnterpriseConfig(scale int) Config {
	if scale < 1 {
		scale = 1
	}
	blocks := 256 / scale
	if blocks < 8 {
		blocks = 8
	}
	return Config{
		Channels:           8,
		PackagesPerChannel: 2,
		ChipsPerPackage:    1,
		PlanesPerChip:      2,
		BlocksPerPlane:     blocks,
		PagesPerBlock:      64,
		PageSize:           8 * storage.KB,
		ReadLatency:        60 * time.Microsecond,
		ProgramLatency:     900 * time.Microsecond,
		EraseLatency:       3 * time.Millisecond,
		ChannelMBps:        330,
		CmdOverhead:        4 * time.Microsecond,
	}
}

// Planes returns the total number of planes (the device's maximum degree of
// operation-level parallelism).
func (c Config) Planes() int {
	return c.Channels * c.PackagesPerChannel * c.ChipsPerPackage * c.PlanesPerChip
}

// Blocks returns the total number of erase blocks.
func (c Config) Blocks() int { return c.Planes() * c.BlocksPerPlane }

// Pages returns the total number of physical pages.
func (c Config) Pages() int64 { return int64(c.Blocks()) * int64(c.PagesPerBlock) }

func (c Config) validate() error {
	switch {
	case c.Channels <= 0, c.PackagesPerChannel <= 0, c.ChipsPerPackage <= 0,
		c.PlanesPerChip <= 0, c.BlocksPerPlane <= 0, c.PagesPerBlock <= 0:
		return fmt.Errorf("nand: non-positive geometry: %+v", c)
	case c.PageSize <= 0:
		return fmt.Errorf("nand: non-positive page size %d", c.PageSize)
	case c.ChannelMBps <= 0:
		return fmt.Errorf("nand: non-positive channel bandwidth")
	}
	return nil
}

// PageState describes the lifecycle of a physical page.
type PageState uint8

// Page lifecycle states.
const (
	PageFree  PageState = iota // erased, programmable
	PageValid                  // programmed, holds live data
)

// OOB is the out-of-band metadata programmed alongside each page. Recovery
// scans read it to rebuild mappings without host involvement.
type OOB struct {
	// Slots records the logical page (4 KB mapping unit) stored in each
	// sub-slot of the physical page. InvalidLPN marks an unused slot.
	Slots []SlotTag
	Seq   uint64 // monotonically increasing program sequence number
	Dump  bool   // page belongs to a power-failure dump, not the main map

	// coded reports a page programmed with real bytes: a read that finds
	// media damage decodes it through the ECC codec (parity computed from
	// the image at read time). Timing-only and torn pages are not coded.
	coded bool
	// stuck and at are the page's media state (media.go): injected stuck
	// bits and the last program time. Both are zero in the record of every
	// page that is not PageValid, so a recycled slab starts clean.
	stuck int32
	at    time.Duration
}

// InvalidLPN marks an unused OOB slot.
const InvalidLPN = storage.LPN(1<<64 - 1)

// SlotTag identifies one logical slot inside a physical page.
type SlotTag struct {
	LPN  storage.LPN
	Torn bool // power failed mid-program; contents are garbage
}

// Faults configures the injectable NAND-level fault models beyond the
// always-on torn-program window. The crash-point exploration harness arms
// these per trial; all are off by default.
type Faults struct {
	// InterruptedErase makes a power cut during a block erase leave the
	// block's cells in an indeterminate state: every page reads back as
	// programmed garbage with unreadable (torn, unmapped) OOB tags, instead
	// of the old contents surviving untouched. The block must be erased
	// again before reuse; garbage collection reclaims it naturally because
	// no mapping entry points into it.
	InterruptedErase bool
	// DumpTearAfter, when > 0, tears the Nth (1-based) capacitor-powered
	// dump program after power-off detection: the page is left partially
	// programmed (torn tags, garbage image) and the program reports failure,
	// modeling the voltage droop of a dying supply. Firmware that checks
	// program status retries on the next pre-erased dump page.
	DumpTearAfter int
}

// blockSlabs holds what an erase block's pages store besides their state, in
// slabs of one entry per page: the OOB records (media state included), the
// tags their Slots point into (tagStride per page), and the page images. A
// block gets its record and tag slabs on its first program, its image slab
// on its first program with data. An erase clears the records, hands the
// slabs to the array's free list and the next block to be programmed takes
// them, so program→erase→program cycles allocate nothing once the array has
// had as many blocks programmed at once as it ever will, and a timing-only
// array keeps no per-page image table at all.
type blockSlabs struct {
	oob  []OOB     // nil: no page of the block programmed since it was last erased
	tags []SlotTag // backs oob[i].Slots
	data [][]byte  // page images; nil for timing-only pages
}

// Process-wide spares (package freelist): a released array hands its block
// slabs and page images here, and an array that misses its own free lists
// takes from them before it allocates. Slab sets are keyed by their
// geometry, images by capacity.
var (
	spareSlabs  = freelist.NewClasses[slabGeometry, blockSlabs](64)
	spareImages = freelist.NewClasses[int, []byte](256)
)

// slabGeometry is the shape of a block's slabs: pages per block and tags per
// page.
type slabGeometry struct{ pages, tagStride int }

// Array is a simulated NAND flash array.
type Array struct {
	cfg Config
	eng *sim.Engine

	channels []*sim.Resource // per-channel bus
	planes   []*sim.Resource // per-plane cell array

	state  []PageState
	blocks []blockSlabs // a page's record and image are valid while it is PageValid
	spare  []blockSlabs // free list: the slabs of erased blocks
	seq    uint64

	// tagStride is the tag window each page's record owns in its block's
	// tag slab: one tag per 4 KB mapping unit of a page.
	tagStride int

	// Erase recycling: an erase physically destroys the page contents, so
	// the data buffers of erased pages return to these free lists and later
	// programs reuse them. (Stale Meta/Data references across an erase were
	// always invalid.) Images are as long as their program's data, so the
	// buffers come in size classes of bufUnit bytes: class c holds buffers
	// of capacity (c+1)·bufUnit, one class per tag of a page.
	bufPool [][][]byte
	bufUnit int

	// The process-wide lists this array's misses fall back on: its slab
	// geometry's, and one per image size class.
	sharedSlabs  *freelist.List[blockSlabs]
	sharedImages []*freelist.List[[]byte]

	// Scratch for the media-damage decode path: the zero-extended page
	// image and its parity.
	img, parity []byte

	inflight map[PPN]struct{} // programs racing a potential power cut; their tags are in their records
	erasing  map[int]bool     // block erases racing a potential power cut
	powered  bool

	faults       Faults
	dumpPrograms int // instant programs issued since power-off detection

	// Bit-error model state (see media.go).
	media    MediaConfig
	eccBits  int        // effective correction threshold per page
	mediaRng *rand.Rand // seeded: stochastic rounding of error counts

	reg   *iotrace.Registry
	stats *storage.Stats
}

// New builds an array with the given geometry, attached to eng, counting
// into reg, the registry it shares with the owning device.
func New(eng *sim.Engine, cfg Config, reg *iotrace.Registry) (*Array, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	a := &Array{
		cfg:       cfg,
		eng:       eng,
		state:     make([]PageState, cfg.Pages()),
		blocks:    make([]blockSlabs, cfg.Blocks()),
		tagStride: max(1, cfg.PageSize/(4*storage.KB)),
		inflight:  make(map[PPN]struct{}),
		erasing:   make(map[int]bool),
		powered:   true,
		reg:       reg,
		stats:     reg.Stats(),
	}
	a.channels = make([]*sim.Resource, cfg.Channels)
	for i := range a.channels {
		a.channels[i] = sim.NewResource(eng, 1)
	}
	a.planes = make([]*sim.Resource, cfg.Planes())
	for i := range a.planes {
		a.planes[i] = sim.NewResource(eng, 1)
	}
	a.bufPool = make([][][]byte, a.tagStride)
	a.bufUnit = cfg.PageSize / a.tagStride
	a.sharedSlabs = spareSlabs.Of(slabGeometry{cfg.PagesPerBlock, a.tagStride})
	a.sharedImages = make([]*freelist.List[[]byte], a.tagStride)
	for c := range a.sharedImages {
		a.sharedImages[c] = spareImages.Of((c + 1) * a.bufUnit)
	}
	a.initMedia(cfg.Media)
	return a, nil
}

// Config returns the array geometry.
func (a *Array) Config() Config { return a.cfg }

// Engine returns the simulation engine the array is attached to.
func (a *Array) Engine() *sim.Engine { return a.eng }

// PlaneOf returns the plane index holding ppn.
func (a *Array) PlaneOf(ppn PPN) int {
	return int(ppn / PPN(a.cfg.BlocksPerPlane*a.cfg.PagesPerBlock))
}

// ChannelOf returns the channel index serving ppn.
func (a *Array) ChannelOf(ppn PPN) int {
	planesPerChannel := a.cfg.PackagesPerChannel * a.cfg.ChipsPerPackage * a.cfg.PlanesPerChip
	return a.PlaneOf(ppn) / planesPerChannel
}

// BlockOf returns the global block index holding ppn.
func (a *Array) BlockOf(ppn PPN) int { return int(ppn) / a.cfg.PagesPerBlock }

// PageOfBlock returns the first PPN of the global block index.
func (a *Array) PageOfBlock(block int) PPN { return PPN(block * a.cfg.PagesPerBlock) }

// BlockOfPlane returns the global block index for block b of plane pl.
func (a *Array) BlockOfPlane(pl, b int) int { return pl*a.cfg.BlocksPerPlane + b }

// State returns the lifecycle state of ppn.
func (a *Array) State(ppn PPN) PageState { return a.state[ppn] }

// Meta returns the OOB metadata of ppn (nil if never programmed since the
// last erase). The record lives in its block's slab, which the block gives
// up when it is erased: a reference to it is valid only until then.
func (a *Array) Meta(ppn PPN) *OOB {
	if a.state[ppn] != PageValid {
		return nil
	}
	return a.record(ppn)
}

// slabs returns ppn's block and ppn's index in it. A block without slabs
// takes an erased block's from the free list, then a released array's, or
// allocates record and tag slabs.
func (a *Array) slabs(ppn PPN) (*blockSlabs, int) {
	b := &a.blocks[a.BlockOf(ppn)]
	if b.oob == nil {
		if n := len(a.spare); n > 0 {
			*b = a.spare[n-1]
			a.spare = a.spare[:n-1]
		} else if s, ok := a.sharedSlabs.Get(); ok {
			*b = s
		} else {
			b.oob = make([]OOB, a.cfg.PagesPerBlock)                  //simlint:allow hotalloc slab first-use miss: kept for reuse across erases
			b.tags = make([]SlotTag, a.cfg.PagesPerBlock*a.tagStride) //simlint:allow hotalloc slab first-use miss: kept for reuse across erases
		}
	}
	return b, int(ppn) % a.cfg.PagesPerBlock
}

// record returns ppn's OOB record.
func (a *Array) record(ppn PPN) *OOB {
	b, i := a.slabs(ppn)
	return &b.oob[i]
}

// reset empties ppn's record: no tags, with Slots the page's window in its
// block's tag slab (a program with more tags than the window holds appends
// past it into a slice of its own), no sequence number, no media state.
func (a *Array) reset(ppn PPN) *OOB {
	b, i := a.slabs(ppn)
	t := i * a.tagStride
	b.oob[i] = OOB{Slots: b.tags[t : t : t+a.tagStride]}
	return &b.oob[i]
}

// setData stores ppn's image, allocating its block's image slab on the
// block's first image.
func (a *Array) setData(ppn PPN, img []byte) {
	b, i := a.slabs(ppn)
	if b.data == nil {
		b.data = make([][]byte, a.cfg.PagesPerBlock) //simlint:allow hotalloc slab first-use miss: kept for reuse across erases
	}
	b.data[i] = img
}

// tear marks every tag of m torn; a record without tags gets one unreadable
// torn tag.
func tear(m *OOB) {
	for i := range m.Slots {
		m.Slots[i].Torn = true
	}
	if len(m.Slots) == 0 {
		m.Slots = append(m.Slots, SlotTag{LPN: InvalidLPN, Torn: true})
	}
}

// Data returns the stored bytes of ppn, or nil if the page was programmed
// in timing-only mode. The image is as long as the data its program
// carried, which may be shorter than a page: the rest of the page reads as
// zeros. Stored images are copies, never written again until an erase.
func (a *Array) Data(ppn PPN) []byte {
	if d := a.blocks[a.BlockOf(ppn)].data; d != nil {
		return d[int(ppn)%a.cfg.PagesPerBlock]
	}
	return nil
}

// Powered reports whether the array currently has power.
func (a *Array) Powered() bool { return a.powered }

// SetFaults arms (or clears) the injectable fault models.
func (a *Array) SetFaults(f Faults) { a.faults = f }

// Faults returns the currently armed fault models.
func (a *Array) Faults() Faults { return a.faults }

func (a *Array) xferTime(bytes int) time.Duration {
	return a.cfg.CmdOverhead + time.Duration(float64(bytes)/float64(a.cfg.ChannelMBps*storage.MB)*float64(time.Second))
}

// ReadPage reads the physical page ppn, occupying its plane for the cell
// read and its channel for the data transfer. If buf is non-nil the stored
// bytes are copied into it, zero-filled past a short image (wholly when the
// page was timing-only).
// Media bit errors within the ECC threshold are corrected transparently;
// beyond it the read fails with storage.ErrUncorrectable.
//
//simlint:hotpath
func (a *Array) ReadPage(p *sim.Proc, req iotrace.Req, ppn PPN, buf []byte) error {
	_, err := a.ReadPageRetry(p, req, ppn, buf, 0)
	return err
}

// ReadPageRetry is ReadPage with an explicit retry attempt number. Attempt
// k > 0 models a read-retry with a shifted reference voltage: transient
// (retention) errors halve per attempt, stuck bits do not.
// On success the ReadInfo reports how many bit errors the ECC corrected.
//
//simlint:hotpath
func (a *Array) ReadPageRetry(p *sim.Proc, req iotrace.Req, ppn PPN, buf []byte, attempt int) (ReadInfo, error) {
	var info ReadInfo
	if !a.powered {
		return info, storage.ErrOffline
	}
	if int64(ppn) >= a.cfg.Pages() {
		return info, storage.ErrOutOfRange
	}
	sp := req.Begin(p, iotrace.LayerNAND)
	defer sp.End(p)
	plane := a.planes[a.PlaneOf(ppn)]
	plane.Acquire(p, 1)
	p.Sleep(a.cfg.ReadLatency)
	plane.Release(1)
	a.channels[a.ChannelOf(ppn)].Use(p, a.xferTime(a.cfg.PageSize))
	if !a.powered {
		return info, storage.ErrPowerFail
	}
	a.stats.NANDReads++
	errBits := 0
	if a.state[ppn] == PageValid {
		errBits = a.errorBits(ppn, attempt)
	}
	if errBits > a.eccBits {
		return info, storage.ErrUncorrectable
	}
	if buf != nil {
		d := a.Data(ppn)
		if errBits > 0 && a.Meta(ppn).coded {
			// Real-bytes path: encode the page image as programmed, corrupt
			// a copy and run the actual codec, so the returned bytes
			// demonstrably survive the modeled damage (not just the
			// model's verdict).
			d = a.pageImage(d)
			a.parity = ECCEncodeInto(a.parity, d)
			corruptPage(d, ppn, errBits, a.eccBits)
			n, ok := ECCDecode(d, a.parity)
			if !ok {
				return info, storage.ErrUncorrectable
			}
			errBits = n
		}
		n := copy(buf, d)
		if d == nil {
			clear(buf)
		} else if end := min(len(buf), a.cfg.PageSize); n < end {
			clear(buf[n:end])
		}
	}
	if errBits > 0 {
		info.CorrectedBits = errBits
		a.stats.CorrectedBits += int64(errBits)
	}
	return info, nil
}

// ProgramPage programs ppn with the given OOB tags and optional data.
// The page must be free (erase-before-rewrite). The program occupies the
// channel for the transfer, then the plane for the cell program. If power
// fails during the cell program, the page is recorded as torn.
//
//simlint:hotpath
func (a *Array) ProgramPage(p *sim.Proc, req iotrace.Req, ppn PPN, slots []SlotTag, data []byte, dump bool) error {
	if !a.powered {
		return storage.ErrOffline
	}
	if int64(ppn) >= a.cfg.Pages() {
		return storage.ErrOutOfRange
	}
	if a.state[ppn] != PageFree {
		return fmt.Errorf("nand: program of non-free page %d", ppn) //simlint:allow hotalloc error construction on an illegal program; never taken at steady state
	}
	sp := req.Begin(p, iotrace.LayerNAND)
	defer sp.End(p)
	a.channels[a.ChannelOf(ppn)].Use(p, a.xferTime(a.cfg.PageSize))
	if !a.powered {
		return storage.ErrPowerFail
	}

	// The cell program is the window where a power cut tears the page. The
	// page is free, so Meta hides its record while the tags wait there for
	// PowerFail to tear them.
	m := a.reset(ppn)
	m.Slots = append(m.Slots, slots...)
	a.inflight[ppn] = struct{}{}
	a.reg.Emit(iotrace.EvProgram, a.eng.Now())
	plane := a.planes[a.PlaneOf(ppn)]
	plane.Acquire(p, 1)
	p.Sleep(a.cfg.ProgramLatency)
	plane.Release(1)
	if _, ok := a.inflight[ppn]; !ok {
		// PowerFail removed us from inflight and recorded the torn page.
		return storage.ErrPowerFail
	}
	delete(a.inflight, ppn)
	if !a.powered {
		return storage.ErrPowerFail
	}

	a.commitProgram(ppn, slots, data, dump)
	return nil
}

// commitProgram installs the page image and OOB: the record and its tags
// go into the block's slabs and the data into a buffer of its size class
// from the erase-recycling pool. slots and data remain caller-owned (their
// contents are copied).
//
//simlint:hotpath
func (a *Array) commitProgram(ppn PPN, slots []SlotTag, data []byte, dump bool) {
	a.seq++
	m := a.reset(ppn)
	m.Slots = append(m.Slots, slots...)
	m.Seq = a.seq
	m.Dump = dump
	m.at = a.eng.Now()
	a.state[ppn] = PageValid
	if data != nil { // timing-only pages carry no bytes to protect
		a.setData(ppn, append(a.getBuf(len(data)), data...)) //simlint:allow hotalloc appends into pooled buffer capacity; grows only past a page
		m.coded = true
	}
	a.stats.NANDPrograms++
}

// pageImage returns d zero-extended to a whole page in the array's decode
// scratch: the image the page's program protected.
func (a *Array) pageImage(d []byte) []byte {
	n := max(len(d), a.cfg.PageSize)
	if cap(a.img) < n {
		a.img = make([]byte, n) //simlint:allow hotalloc decode scratch first-use miss: kept for the array's later damaged reads
	}
	img := a.img[:n]
	clear(img[copy(img, d):])
	return img
}

// bufClass returns the size class of an image buffer of n bytes.
func (a *Array) bufClass(n int) int {
	return min(max((n+a.bufUnit-1)/a.bufUnit, 1), len(a.bufPool)) - 1
}

// getBuf returns a recycled or fresh zero-length image buffer with room for
// n bytes (up to a page): an erased page's, then a released array's.
func (a *Array) getBuf(n int) []byte {
	c := a.bufClass(n)
	pool := a.bufPool[c]
	if last := len(pool) - 1; last >= 0 {
		b := pool[last]
		pool[last] = nil
		a.bufPool[c] = pool[:last]
		return b[:0]
	}
	if b, ok := a.sharedImages[c].Get(); ok {
		return b[:0]
	}
	return make([]byte, 0, (c+1)*a.bufUnit) //simlint:allow hotalloc pool miss fallback; steady state recycles pooled buffers
}

// putBuf returns an erased page's image buffer to the pool of its class.
func (a *Array) putBuf(b []byte) {
	c := a.bufClass(cap(b) - cap(b)%a.bufUnit)
	a.bufPool[c] = append(a.bufPool[c], b)
}

// ErrProgramFailed reports a cell program that completed with bad status:
// the target page is left partially programmed (torn) and must not be
// trusted. Firmware retries on a different page.
var ErrProgramFailed = fmt.Errorf("nand: program failed, page torn")

// ProgramPageInstant programs ppn without consuming virtual time. It models
// the capacitor-powered dump after power-off detection, where the engine's
// normal resource scheduling no longer applies (the host is gone and the
// firmware owns the whole device). The caller accounts for dump energy.
//
// With the DumpTearAfter fault armed, the Nth post-power-off program tears
// its page and returns ErrProgramFailed — the partial-dump fault shape: the
// page holds a recognizably corrupt image under torn OOB tags, and the
// caller is expected to retry on the next pre-erased page.
func (a *Array) ProgramPageInstant(ppn PPN, slots []SlotTag, data []byte, dump bool) error {
	if int64(ppn) >= a.cfg.Pages() {
		return storage.ErrOutOfRange
	}
	if a.state[ppn] != PageFree {
		return fmt.Errorf("nand: program of non-free page %d", ppn)
	}
	if !a.powered {
		a.dumpPrograms++
		if a.faults.DumpTearAfter > 0 && a.dumpPrograms == a.faults.DumpTearAfter {
			a.tearPage(ppn, slots, data, dump)
			return ErrProgramFailed
		}
	}
	a.commitProgram(ppn, slots, data, dump)
	return nil
}

// EraseBlock erases the global block index, returning its pages to PageFree.
// If power fails during the erase pulse the block is left untouched — or,
// with the InterruptedErase fault armed, in an indeterminate half-erased
// state (see Faults).
func (a *Array) EraseBlock(p *sim.Proc, req iotrace.Req, block int) error {
	if !a.powered {
		return storage.ErrOffline
	}
	sp := req.Begin(p, iotrace.LayerNAND)
	defer sp.End(p)
	first := a.PageOfBlock(block)
	a.erasing[block] = true
	a.reg.Emit(iotrace.EvErase, a.eng.Now())
	plane := a.planes[a.PlaneOf(first)]
	plane.Acquire(p, 1)
	p.Sleep(a.cfg.EraseLatency)
	plane.Release(1)
	if !a.erasing[block] {
		// PowerFail interrupted the erase and scrambled the block.
		return storage.ErrPowerFail
	}
	delete(a.erasing, block)
	if !a.powered {
		return storage.ErrPowerFail
	}
	a.eraseNow(block)
	return nil
}

func (a *Array) eraseNow(block int) {
	a.freeSlabs(block)
	first := a.PageOfBlock(block)
	for i := 0; i < a.cfg.PagesPerBlock; i++ {
		a.state[first+PPN(i)] = PageFree
	}
	a.stats.NANDErases++
}

// freeSlabs hands block's images and cleared slabs to the array's free
// lists.
func (a *Array) freeSlabs(block int) {
	b := &a.blocks[block]
	if b.oob == nil {
		return
	}
	for i, d := range b.data {
		if d != nil {
			b.data[i] = nil
			a.putBuf(d)
		}
	}
	clear(b.oob) // an erased page has no stuck bits and no program time
	a.spare = append(a.spare, *b)
	*b = blockSlabs{}
}

// Release hands every page image and block slab the array holds to the
// process-wide free lists, as if each block were erased, so the next array
// built in the process takes them instead of allocating. Call it only once
// the engine the array is attached to is closed: the array must not be used
// again, and every page reference it handed out (Data, Meta) is invalid.
func (a *Array) Release() {
	for block := range a.blocks {
		a.freeSlabs(block)
	}
	for _, s := range a.spare {
		a.sharedSlabs.Put(s)
	}
	for c, pool := range a.bufPool {
		for _, b := range pool {
			a.sharedImages[c].Put(b)
		}
	}
	a.blocks, a.spare, a.bufPool = nil, nil, nil
}

// PowerFail cuts power to the array. Every in-flight cell program tears its
// target page: the page reads back as garbage with Torn OOB tags, exactly
// the "shorn write" anomaly the paper cites from the FAST'13 power-fault
// study. The original slot tags are preserved (with Torn set) so that an
// eagerly-updated mapping exposes the corruption to the host.
//
// With the InterruptedErase fault armed, every in-flight block erase leaves
// its block half-erased: all pages read back as programmed garbage with
// unreadable OOB, and the block must be erased again before reuse.
func (a *Array) PowerFail() {
	if !a.powered {
		return
	}
	a.powered = false
	a.dumpPrograms = 0
	// Torn pages take sequence numbers in PPN order, and erased blocks tear
	// in block order, so the result never depends on map iteration.
	for _, ppn := range slices.Sorted(maps.Keys(a.inflight)) {
		a.seq++
		m := a.record(ppn) // holds the tags ProgramPage put there
		tear(m)
		m.Seq = a.seq
		m.at = a.eng.Now()
		a.state[ppn] = PageValid
		a.setData(ppn, tornImage(a.Data(ppn), a.cfg.PageSize))
		a.stats.TornPages++
		delete(a.inflight, ppn)
	}
	if a.faults.InterruptedErase {
		for _, block := range slices.Sorted(maps.Keys(a.erasing)) {
			first := a.PageOfBlock(block)
			for i := 0; i < a.cfg.PagesPerBlock; i++ {
				ppn := first + PPN(i)
				a.seq++
				stuck := a.record(ppn).stuck // the erase never reached the cells
				m := a.reset(ppn)
				tear(m)
				m.Seq = a.seq
				m.stuck = stuck
				m.at = a.eng.Now()
				a.state[ppn] = PageValid
				a.setData(ppn, tornImage(a.Data(ppn), a.cfg.PageSize))
			}
			a.stats.InterruptedErases++
			delete(a.erasing, block)
		}
	}
}

// PowerOn restores power.
func (a *Array) PowerOn() { a.powered = true }

// tearPage leaves ppn partially programmed: torn tags (LPNs preserved so an
// eager mapping exposes the damage), a half-old half-garbage image, and the
// Dump flag as issued so recovery scans see — and skip — the bad dump page.
func (a *Array) tearPage(ppn PPN, slots []SlotTag, data []byte, dump bool) {
	a.seq++
	m := a.reset(ppn)
	m.Slots = append(m.Slots, slots...)
	tear(m)
	m.Seq = a.seq
	m.Dump = dump
	m.at = a.eng.Now()
	a.state[ppn] = PageValid
	a.setData(ppn, tornImage(data, a.cfg.PageSize))
	a.stats.TornPages++
}

// tornImage fabricates a recognizably corrupt page image.
func tornImage(old []byte, size int) []byte {
	img := make([]byte, size)
	if old != nil {
		copy(img, old)
	}
	// Corrupt the second half: a mix of old (or zero) and garbage bytes.
	for i := size / 2; i < size; i++ {
		img[i] = byte(0xde ^ i)
	}
	return img
}
