package ftl

import (
	"errors"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/nand"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// Media-error handling: read-retry with bounded backoff, rewrite of pages
// whose corrected-bit count crosses the refresh threshold, bad-block
// retirement into the per-plane reserve pool with live-data migration, and
// the background scrubber that patrols cold blocks. When the reserve pool
// runs dry the FTL degrades to read-only (storage.ErrReadOnly) instead of
// risking silent corruption.

// PhysPageOf returns the physical page currently holding lpn (fault
// injection and white-box tests). ok is false for unmapped slots.
func (f *FTL) PhysPageOf(lpn storage.LPN) (nand.PPN, bool) {
	spn, ok := f.spnOf(lpn)
	if !ok {
		return 0, false
	}
	return nand.PPN(spn / SPN(f.cfg.SlotsPerPage)), true
}

// readPagePhys reads ppn with up to ReadRetries bounded-backoff retries.
// Each retry models a reference-voltage shift: transient errors shrink,
// stuck bits persist. The caller decides retirement policy on failure.
func (f *FTL) readPagePhys(p *sim.Proc, req iotrace.Req, ppn nand.PPN, page []byte) (nand.ReadInfo, error) {
	info, err := f.a.ReadPageRetry(p, req, ppn, page, 0)
	for attempt := 1; err != nil && errors.Is(err, storage.ErrUncorrectable) && attempt <= f.cfg.ReadRetries; attempt++ {
		f.stats.ReadRetries++
		if f.cfg.RetryBackoff > 0 {
			p.Sleep(f.cfg.RetryBackoff * time.Duration(attempt))
		}
		info, err = f.a.ReadPageRetry(p, req, ppn, page, attempt)
	}
	return info, err
}

// noteUncorrectable reacts to a host-visible uncorrectable read: when
// retirement is enabled, the damaged block is migrated and retired so the
// fault cannot spread. Best-effort — a power cut mid-migration leaves the
// block unretired and the next failing read triggers it again.
func (f *FTL) noteUncorrectable(p *sim.Proc, req iotrace.Req, ppn nand.PPN) { //simlint:allow hotalloc cold media-error retirement; runs at most once per damaged page
	if f.cfg.ReserveBlocks <= 0 {
		return
	}
	// Retirement failure (power cut) is recoverable by construction: the
	// mapping still points at the damaged block and the retry happens on
	// the next failing read.
	_ = f.retireLive(p, req, f.a.BlockOf(ppn))
}

// retireLive migrates the readable live data of blk and moves the block to
// the retired set, pulling a replacement from the plane's reserve pool.
// Slots whose pages are unreadable stay mapped to the retired block: host
// reads keep returning the typed error (never silently-zero data) until
// the host rewrites them. The migration window is bracketed by retire
// events so the crash-point explorer can cut power mid-migration.
func (f *FTL) retireLive(p *sim.Proc, req iotrace.Req, blk int) error {
	pl := f.a.PlaneOf(f.a.PageOfBlock(blk))
	f.gcLocks[pl].Acquire(p, 1)
	defer f.gcLocks[pl].Release(1)
	if f.retired[blk] || f.dumpSet[blk] || f.isFree(pl, blk) || f.inReserve(pl, blk) {
		return nil
	}
	if blk == f.active[pl] {
		// Damage does not wait for the write frontier: seal the active
		// block so the next program opens a fresh one, then retire it like
		// any sealed block. Its remaining erased pages leave service with
		// it — the reserve pool replaces the whole block anyway.
		f.active[pl] = -1
	}
	f.reg.Emit(iotrace.EvRetireStart, f.a.Engine().Now())
	_, err := f.relocate(p, req, blk, pl)
	if err == nil {
		f.retireBlock(pl, blk)
	}
	f.reg.Emit(iotrace.EvRetireEnd, f.a.Engine().Now())
	return err
}

// retireBlock moves blk out of service and promotes a reserve block into
// the plane's free list. With the reserve exhausted the device degrades to
// read-only: refusing writes is the graceful alternative to reusing media
// known to be failing.
func (f *FTL) retireBlock(pl, blk int) {
	f.retired[blk] = true
	f.stats.RetiredBlocks++
	if n := len(f.reserve[pl]); n > 0 {
		f.planeFree[pl] = append(f.planeFree[pl], f.reserve[pl][n-1])
		f.reserve[pl] = f.reserve[pl][:n-1]
		return
	}
	if !f.readOnly {
		f.readOnly = true
		f.stats.DegradedTransitions++
	}
}

// liveSubs appends to dst the sub-slot indices of ppn whose mapping entry
// still points at this physical page. The scratch must be owned by the
// caller: relocation loops park between computing the live set and using
// it, so a shared FTL-level buffer would be clobbered by concurrent GC on
// another plane.
func (f *FTL) liveSubs(dst []int, ppn nand.PPN) []int {
	if f.a.State(ppn) != nand.PageValid {
		return dst
	}
	meta := f.a.Meta(ppn)
	if meta == nil {
		return dst
	}
	for si, tag := range meta.Slots {
		if tag.LPN == nand.InvalidLPN {
			continue
		}
		if spn, ok := f.spnOf(tag.LPN); ok && spn == f.spnAt(ppn, si) {
			dst = append(dst, si)
		}
	}
	return dst
}

// maybeRefresh rewrites ppn's live slots when the read had to correct at
// least RefreshThreshold bits.
func (f *FTL) maybeRefresh(p *sim.Proc, req iotrace.Req, ppn nand.PPN, info nand.ReadInfo) {
	if f.cfg.RefreshThreshold > 0 && info.CorrectedBits >= f.cfg.RefreshThreshold {
		f.refreshBestEffort(p, req, ppn)
	}
}

// refreshBestEffort runs refreshPage, swallowing errors: the host read that
// triggered the refresh already succeeded, and a failed rewrite (power cut,
// read-only degradation, out of space) leaves the old page mapped and
// readable — the refresh simply happens again on a later read.
func (f *FTL) refreshBestEffort(p *sim.Proc, req iotrace.Req, ppn nand.PPN) { //simlint:allow hotalloc cold refresh; rare by construction (RefreshThreshold)
	_ = f.refreshPage(p, req, ppn)
}

// refreshPage relocates ppn's live slots to a fresh location, resetting
// their retention age. The rewrite uses the stored image, which is
// identical to the ECC-corrected read (error accumulation is modeled at
// read time over pristine storage).
func (f *FTL) refreshPage(p *sim.Proc, req iotrace.Req, ppn nand.PPN) error {
	if f.readOnly {
		return storage.ErrReadOnly
	}
	subs := f.liveSubs(make([]int, 0, f.cfg.SlotsPerPage), ppn)
	if len(subs) == 0 {
		return nil
	}
	batch := make([]SlotWrite, 0, len(subs))
	for _, si := range subs {
		batch = append(batch, f.relocation(ppn, si, f.a.Data(ppn)))
	}
	err := f.programAt(p, req, batch, -1, false)
	f.recycleBatch(batch)
	if err != nil {
		return err
	}
	f.stats.RefreshPrograms++
	return nil
}

// StartScrubber launches the background media scrubber (no-op unless
// ScrubInterval is configured). Call once. The scrubber is wakeup-driven
// (NotifyIdle) and rate-limited to one patrol pass per ScrubInterval of
// virtual time, so an idle simulation still terminates: the proc parks on
// its queue instead of sleeping on a timer.
func (f *FTL) StartScrubber() {
	if f.cfg.ScrubInterval <= 0 || f.scrubWake != nil {
		return
	}
	f.scrubWake = sim.NewQueue(f.a.Engine())
	f.a.Engine().Go("scrubber", f.scrubLoop) //simlint:allow procbudget long-lived singleton patrol loop, spawned once per FTL lifetime
}

func (f *FTL) scrubLoop(p *sim.Proc) {
	for {
		f.scrubWake.Wait(p)
		if !f.a.Powered() || f.readOnly {
			continue
		}
		now := f.a.Engine().Now()
		if now-f.lastScrub < f.cfg.ScrubInterval {
			continue
		}
		f.lastScrub = now
		if err := f.ScrubOnce(p); err != nil {
			// Power cut mid-pass: park until the next wakeup after reboot.
			continue
		}
	}
}

// ScrubOnce runs one patrol pass: every valid page older than the scrub
// interval is read (exercising ECC and read-retry); pages past the refresh
// threshold are rewritten, unreadable ones retire their block. Exported so
// tests can drive patrols deterministically.
func (f *FTL) ScrubOnce(p *sim.Proc) error {
	req := f.reg.NewReq(p, iotrace.OpScrub, iotrace.OriginUnknown, 0, 0)
	defer req.Finish(p)
	sp := req.Begin(p, iotrace.LayerFTL)
	defer sp.End(p)
	ncfg := f.a.Config()
	now := f.a.Engine().Now()
	live := make([]int, 0, f.cfg.SlotsPerPage)
	var page []byte
	defer func() { f.putPage(page) }()
	for blk := 0; blk < ncfg.Blocks(); blk++ {
		if f.dumpSet[blk] || f.retired[blk] || f.validCount[blk] == 0 {
			continue
		}
		first := f.a.PageOfBlock(blk)
		for i := 0; i < ncfg.PagesPerBlock; i++ {
			ppn := first + nand.PPN(i)
			if f.a.State(ppn) != nand.PageValid {
				continue
			}
			if f.cfg.ScrubInterval > 0 && now-f.a.ProgrammedAt(ppn) < f.cfg.ScrubInterval {
				continue // young page: retention cannot have accumulated yet
			}
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
			info, err := f.readPagePhys(p, req, ppn, buf)
			f.stats.ScrubReads++
			if err != nil {
				if errors.Is(err, storage.ErrUncorrectable) {
					if f.cfg.ReserveBlocks > 0 {
						if rerr := f.retireLive(p, req, blk); rerr != nil {
							return rerr
						}
						break // whole block migrated and retired
					}
					continue // no reserve: leave the page for the host, keep patrolling
				}
				return err
			}
			if f.cfg.RefreshThreshold > 0 && info.CorrectedBits >= f.cfg.RefreshThreshold {
				if err := f.refreshPage(p, req, ppn); err != nil {
					return err
				}
			}
		}
	}
	f.stats.ScrubPasses++
	return nil
}
