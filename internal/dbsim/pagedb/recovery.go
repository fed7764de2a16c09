package pagedb

import (
	"fmt"
	"slices"

	"durassd/internal/dbsim/buffer"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// RecoveryReport summarizes what crash recovery found and fixed.
type RecoveryReport struct {
	DWBPagesScanned int
	TornRepaired    int // torn in-place pages restored from a DWB copy or a logged full image
	TornUnrepaired  int // torn pages with neither (data loss!)
	RedoRecords     int // surviving log records
	RedoApplied     int // page versions rolled forward
	MaxLSN          uint64
}

// Recover runs crash recovery (RealBytes engines only):
//
//  1. Double-write scan (DoubleWrite on): every valid page image in the DWB
//     area repairs a torn in-place copy of the same page.
//  2. Redo: surviving log records roll pages forward to their logged
//     versions. A full-page image re-establishes the base of a torn page;
//     a delta record cannot.
//
// With both protections off (the paper's OFF configurations) torn pages
// remain — and are only safe because DuraSSD never produces them. It
// returns a report; TornUnrepaired > 0 means the database is corrupt.
func (e *Engine) Recover(p *sim.Proc) (*RecoveryReport, error) {
	if !e.cfg.RealBytes {
		return nil, fmt.Errorf("%s: Recover requires RealBytes mode", e.name)
	}
	rep := &RecoveryReport{}
	pageBuf := make([]byte, e.cfg.PageBytes)

	// Phase 1: double-write buffer scan. dwbIDs keeps the slot order, which
	// is the order the copies are validated in: every validation is a
	// device read, and a map's order is not the model's.
	dwbCopies := make(map[uint64][]byte)
	var dwbIDs []uint64
	if e.cfg.DoubleWrite {
		n := int(e.dwbFile.Pages())
		img := make([]byte, n*e.dwbFile.PageSize())
		if err := e.dwbFile.ReadPages(p, 0, n, img); err != nil {
			return nil, err
		}
		for off := 0; off+e.cfg.PageBytes <= len(img); off += e.cfg.PageBytes {
			pg := img[off : off+e.cfg.PageBytes]
			if id, _, ok := storage.ParsePageImage(pg); ok {
				dwbCopies[id] = pg // a later slot's copy of the same page wins
				dwbIDs = append(dwbIDs, id)
				rep.DWBPagesScanned++
			}
		}
	}

	// Phase 2: redo scan. Records also tell us which pages to validate.
	recs, err := e.log.ReadAll(p)
	if err != nil {
		return nil, err
	}
	rep.RedoRecords = len(recs)

	// Validate and repair every page named by the DWB or the log.
	checked := make(map[uint64]uint64) // id -> on-disk version (0 if torn)
	torn := make(map[uint64]bool)      // torn with no repair source
	validate := func(id uint64) (uint64, error) {
		if v, ok := checked[id]; ok {
			return v, nil
		}
		if err := e.readData(p, buffer.PageID(id), pageBuf); err != nil {
			return 0, err
		}
		gotID, ver, ok := storage.ParsePageImage(pageBuf)
		if !ok || gotID != id {
			// Torn or never written. Try the double-write copy.
			if cp, have := dwbCopies[id]; have {
				if err := e.writeData(p, buffer.PageID(id), cp); err != nil {
					return 0, err
				}
				_, ver, _ = storage.ParsePageImage(cp)
				rep.TornRepaired++
			} else {
				if !ok && isNonZero(pageBuf) {
					// A shorn write with no intact copy in the DWB: delta
					// redo records cannot repair it (they need a valid
					// base), so the page stays corrupt unless the log
					// holds a full image of it.
					rep.TornUnrepaired++
					torn[id] = true
				}
				ver = 0
			}
		}
		checked[id] = ver
		return ver, nil
	}
	for _, id := range dwbIDs {
		if _, err := validate(id); err != nil {
			return nil, err
		}
	}
	for _, rec := range recs {
		rep.MaxLSN = max(rep.MaxLSN, rec.LSN)
		ver, err := validate(rec.Page)
		if err != nil {
			return nil, err
		}
		if torn[rec.Page] {
			if !rec.FullImage {
				continue // no valid base to apply the delta to
			}
			delete(torn, rec.Page) // a full image re-establishes the base
			rep.TornUnrepaired--
			rep.TornRepaired++
		}
		if ver < rec.Version {
			storage.BuildPageImage(pageBuf, rec.Page, rec.Version)
			if err := e.writeData(p, buffer.PageID(rec.Page), pageBuf); err != nil {
				return nil, err
			}
			checked[rec.Page] = rec.Version
			rep.RedoApplied++
		}
	}
	// Adopt the recovered versions.
	for id, v := range checked {
		if v > 0 {
			e.versions[buffer.PageID(id)] = v
		}
	}
	return rep, nil
}

// isNonZero reports whether the page holds any data at all (an all-zero
// page is "never written", not torn).
func isNonZero(b []byte) bool {
	return slices.ContainsFunc(b, func(x byte) bool { return x != 0 })
}

// PageVersionOnDisk reads a page directly from storage and returns its
// image version (0 if unreadable or never written). Crash harnesses use it
// to verify durability claims.
func (e *Engine) PageVersionOnDisk(p *sim.Proc, id buffer.PageID) (uint64, bool, error) {
	buf := e.auditPage()
	defer func() { e.auditPages = append(e.auditPages, buf) }()
	if err := e.readData(p, id, buf); err != nil {
		return 0, false, err
	}
	gotID, ver, ok := storage.ParsePageImage(buf)
	if !ok || gotID != uint64(id) {
		return 0, false, nil
	}
	return ver, true, nil
}

// auditPage takes a page buffer from the audit free list. Audit readers are
// processes that may overlap on the device, so each holds its own page for
// the length of its read.
func (e *Engine) auditPage() []byte {
	if n := len(e.auditPages); n > 0 {
		buf := e.auditPages[n-1]
		e.auditPages = e.auditPages[:n-1]
		return buf
	}
	return make([]byte, e.cfg.PageBytes) //simlint:allow hotalloc free-list miss: one page per audit read in flight, kept for reuse
}
