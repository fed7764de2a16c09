package serve

import (
	"fmt"
	"sort"
	"time"

	"durassd/internal/freelist"
	"durassd/internal/host"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// Store is one shard's durable document store: a fixed key space laid out
// one key per device page behind a host.FS file. A PutVersion writes the
// key's canonical page image (storage.BuildPageImage: id, version, CRC) and
// group-commits an fdatasync before acknowledging, so "PutVersion returned
// nil" means exactly what a database commit ack means — and whether that ack
// survives a power cut is decided by the device underneath, which is the
// paper's whole argument: with barriers off, fdatasync never flushes the
// device cache, so a DuraSSD shard keeps every acked write while a
// volatile-cache shard loses whatever had not drained.
//
// A Store is confined to its shard's domain: every method taking a
// *sim.Proc must run on that domain's engine (the Server ships operations
// over with Domain.Call).
type Store struct {
	dom   *sim.Domain
	dev   storage.Device
	fs    *host.FS
	file  *host.File
	slots map[uint64]int64  // key -> page offset in the file
	vers  map[uint64]uint64 // key -> last durably acked version
	real  bool              // write real page images (crash campaigns) vs timing-only

	// slowdown is extra service latency injected before every operation —
	// the chaos plane's replica brownout. Zero in normal operation.
	slowdown time.Duration

	// Striped write locks: writes to the same key serialize, so a later ack
	// always means a later (or equal) on-media version — the property the
	// crash audit's "max acked version per key" bookkeeping relies on.
	stripes []*sim.Resource

	// Group commit: writers wait for a sync generation covering their
	// write; one of them leads the fdatasync, the rest ride along.
	writeGen uint64
	syncGen  uint64
	syncing  bool
	syncDone *sim.Queue

	// Scratch page images for real-bytes operations. Several processes are
	// inside the store at once, so this is a free list, not one buffer; the
	// device copies what it is given before a command returns.
	pages [][]byte

	puts  int64
	gets  int64
	syncs int64
}

const storeStripes = 64

// StoreConfig configures one shard store.
type StoreConfig struct {
	// Barrier sets the host filesystem's write-barrier mode. The paper's
	// fast configuration is false: fdatasync costs CPU only and relies on
	// the device cache being durable.
	Barrier bool
	// RealBytes selects checksummed page images (crash campaigns audit
	// them) over timing-only nil buffers (benchmarks).
	RealBytes bool
}

// OpenStore lays the key set out on dev (one page per key, slot order =
// sorted key order, so the layout is deterministic) and preloads every
// page so reads of never-written keys are well-defined version-0 hits.
func OpenStore(dom *sim.Domain, dev storage.Device, keys []uint64, cfg StoreConfig) (*Store, error) {
	if int64(len(keys))+1 > dev.Pages() {
		return nil, fmt.Errorf("serve: %d keys exceed device capacity %d pages", len(keys), dev.Pages())
	}
	sorted := make([]uint64, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("serve: duplicate key %d in shard key set", sorted[i])
		}
	}
	fs := host.NewFS(dev, cfg.Barrier)
	file, err := fs.Create("shard", int64(len(sorted)))
	if err != nil {
		return nil, err
	}
	st := &Store{
		dom:      dom,
		dev:      dev,
		fs:       fs,
		file:     file,
		slots:    make(map[uint64]int64, len(sorted)),
		vers:     make(map[uint64]uint64, len(sorted)),
		real:     cfg.RealBytes,
		stripes:  make([]*sim.Resource, storeStripes),
		syncDone: sim.NewQueue(dom.Engine()),
	}
	for i := range st.stripes {
		st.stripes[i] = sim.NewResource(dom.Engine(), 1)
	}
	for i, k := range sorted {
		st.slots[k] = int64(i)
	}
	if err := st.preload(sorted); err != nil {
		return nil, err
	}
	return st, nil
}

// preloadBufs keeps preload's staging buffers for the next store opened in
// the process: a crash campaign opens a store per replica for every point,
// and the device copies the images out before preload returns.
var preloadBufs = freelist.New[[]byte](4)

// preload installs the initial version-0 image of every key instantly
// (virtual time does not advance), in chunks to bound the staging buffer,
// which is no larger than the key set needs. Every staged byte is written
// before the device sees it, so a recycled buffer stages what a fresh one
// would.
func (st *Store) preload(sorted []uint64) error {
	const chunk = 256
	ps := st.file.PageSize()
	var buf []byte
	if st.real {
		n := min(len(sorted), chunk) * ps
		if b, ok := preloadBufs.Get(); ok && cap(b) >= n {
			buf = b[:n]
		} else {
			buf = make([]byte, n)
		}
		defer preloadBufs.Put(buf)
	}
	for off := 0; off < len(sorted); off += chunk {
		n := len(sorted) - off
		if n > chunk {
			n = chunk
		}
		var data []byte
		if st.real {
			data = buf[:n*ps]
			for i := 0; i < n; i++ {
				storage.BuildPageImage(data[i*ps:(i+1)*ps], sorted[off+i], 0)
			}
		}
		if err := st.file.Preload(int64(off), int64(n), data); err != nil {
			return err
		}
	}
	return nil
}

// Domain returns the shard's simulation domain.
func (st *Store) Domain() *sim.Domain { return st.dom }

// Device returns the shard's device.
func (st *Store) Device() storage.Device { return st.dev }

// SetSlowdown injects extra service latency before every subsequent store
// operation — the chaos plane's replica brownout knob. Call it from the
// store's own domain (schedule an event there); zero restores normal speed.
func (st *Store) SetSlowdown(d time.Duration) { st.slowdown = d }

// page returns a scratch page image in real-bytes mode and nil in timing
// mode; the caller hands it back with donePage when its command returns.
func (st *Store) page() []byte {
	if !st.real {
		return nil
	}
	return st.scratchPage()
}

// scratchPage takes a page from the free list in either mode.
func (st *Store) scratchPage() []byte {
	if n := len(st.pages); n > 0 {
		pg := st.pages[n-1]
		st.pages = st.pages[:n-1]
		return pg
	}
	return make([]byte, st.file.PageSize()) //simlint:allow hotalloc free-list miss; the store keeps as many scratch pages as it has had operations in flight at once
}

func (st *Store) donePage(pg []byte) {
	if pg != nil {
		st.pages = append(st.pages, pg)
	}
}

// PutVersion durably writes key at a caller-assigned version — the replica
// half of a quorum write, where the group (not the replica) is the version
// authority. It is idempotent: a version at or below the replica's durable
// state is acknowledged without device traffic, so a retried quorum attempt
// or a catch-up replay of an already-applied write costs nothing and never
// regresses the media. The applied version is whatever is durable afterwards
// (max of the replica's state and ver).
//
//simlint:hotpath
func (st *Store) PutVersion(p *sim.Proc, key uint64, ver uint64) error {
	slot, ok := st.slots[key]
	if !ok {
		return fmt.Errorf("serve: put of unknown key %d", key) //simlint:allow hotalloc the key is outside the shard: a routing bug, not a serving path
	}
	lock := st.stripes[mix64(key)%storeStripes]
	lock.Acquire(p, 1)
	defer lock.Release(1)
	if st.slowdown > 0 {
		p.Sleep(st.slowdown)
	}
	if st.vers[key] >= ver {
		return nil // already durable at this version or newer
	}
	return st.writeLocked(p, key, slot, ver)
}

// writeLocked performs the write + group-commit under the caller-held
// stripe lock and records the new durable version.
func (st *Store) writeLocked(p *sim.Proc, key uint64, slot int64, version uint64) error {
	data := st.page()
	if data != nil {
		storage.BuildPageImage(data, key, version)
	}
	err := st.file.WritePages(p, slot, 1, data)
	st.donePage(data)
	if err != nil {
		return err
	}
	st.writeGen++
	if err := st.syncThrough(p, st.writeGen); err != nil {
		return err
	}
	if version > st.vers[key] {
		st.vers[key] = version
	}
	st.puts++
	return nil
}

// Get reads the key's page and returns its current version. A key outside
// the shard's key space returns found=false without device traffic (the
// gateway's bloom filter makes this path rare, but false positives land
// here). In real-bytes mode the version comes from the page image itself
// (a corrupt image is an error — serving never papers over a failed
// checksum); in timing mode the device read still happens but the version
// is tracked in memory.
//
//simlint:hotpath
func (st *Store) Get(p *sim.Proc, key uint64) (version uint64, found bool, err error) {
	slot, ok := st.slots[key]
	if !ok {
		return 0, false, nil
	}
	if st.slowdown > 0 {
		p.Sleep(st.slowdown)
	}
	buf := st.page()
	if err := st.file.ReadPages(p, slot, 1, buf); err != nil {
		st.donePage(buf)
		return 0, false, err
	}
	st.gets++
	if !st.real {
		return st.vers[key], true, nil
	}
	id, version, ok := storage.ParsePageImage(buf)
	st.donePage(buf)
	if !ok || id != key {
		return 0, false, fmt.Errorf("serve: corrupt page image for key %d", key) //simlint:allow hotalloc the page failed its checksum; the error names the key
	}
	return version, true, nil
}

// syncThrough blocks until a completed fdatasync covers write generation
// gen. The first waiter of a round leads the sync; everyone whose write
// preceded the leader's snapshot is acknowledged by the same device round
// trip — classic group commit.
//
//simlint:hotpath
func (st *Store) syncThrough(p *sim.Proc, gen uint64) error {
	for st.syncGen < gen {
		if st.syncing {
			st.syncDone.Wait(p)
			continue
		}
		st.syncing = true
		covered := st.writeGen
		err := st.file.Fdatasync(p)
		st.syncing = false
		st.syncDone.WakeAll()
		if err != nil {
			return err
		}
		st.syncs++
		if covered > st.syncGen {
			st.syncGen = covered
		}
	}
	return nil
}

// CrashRead reads the key's page image after a crash and reboot, returning
// the on-media version. ok is false when the image fails its checksum (a
// torn page) or carries the wrong key. Only meaningful in real-bytes mode.
func (st *Store) CrashRead(p *sim.Proc, key uint64) (version uint64, ok bool, err error) {
	slot, present := st.slots[key]
	if !present {
		return 0, false, fmt.Errorf("serve: crash read of unknown key %d", key)
	}
	buf := st.scratchPage()
	defer st.donePage(buf)
	if err := st.file.ReadPages(p, slot, 1, buf); err != nil {
		return 0, false, err
	}
	id, version, ok := storage.ParsePageImage(buf)
	if !ok || id != key {
		return 0, false, nil
	}
	return version, true, nil
}
