package core

import (
	"sort"
	"time"

	"durassd/internal/ftl"
	"durassd/internal/iotrace"
	"durassd/internal/nand"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// dumpArea manages the pre-erased blocks reserved for the power-failure
// dump (paper §3.4.1: "a group of clean flash memory blocks are always
// available for the dump area ... so the key data structures can be flushed
// as fast as possible without encountering a garbage collection").
type dumpArea struct {
	f      *ftl.FTL
	a      *nand.Array
	blocks []int
	cursor int // pages already consumed across the area
}

func newDumpArea(f *ftl.FTL) *dumpArea {
	return &dumpArea{f: f, a: f.Array(), blocks: f.DumpBlockIDs()}
}

// capacity returns the remaining programmable pages in the area.
func (d *dumpArea) capacity() int {
	return len(d.blocks)*d.a.Config().PagesPerBlock - d.cursor
}

func (d *dumpArea) nextPage() (nand.PPN, bool) {
	ppb := d.a.Config().PagesPerBlock
	for d.cursor < len(d.blocks)*ppb {
		blk := d.blocks[d.cursor/ppb]
		ppn := d.a.PageOfBlock(blk) + nand.PPN(d.cursor%ppb)
		d.cursor++
		if d.a.State(ppn) == nand.PageFree {
			return ppn, true
		}
	}
	return 0, false
}

// programMapPage dumps one page of modified mapping entries.
func (d *dumpArea) programMapPage() bool {
	ppn, ok := d.nextPage()
	if !ok {
		return false
	}
	return d.a.ProgramPageInstant(ppn, nil, nil, true) == nil
}

// programSlots dumps one buffer-pool page holding the given slots.
func (d *dumpArea) programSlots(slots []ftl.SlotWrite) bool {
	ppn, ok := d.nextPage()
	if !ok {
		return false
	}
	tags := make([]nand.SlotTag, len(slots))
	ss := d.f.SlotSize()
	var data []byte
	for i, s := range slots {
		tags[i] = nand.SlotTag{LPN: s.LPN}
		if s.Data != nil && data == nil {
			data = make([]byte, len(slots)*ss) // a short page image: the array zero-fills the rest
		}
	}
	if data != nil {
		for i, s := range slots {
			if s.Data != nil {
				copy(data[i*ss:(i+1)*ss], s.Data)
			}
		}
	}
	return d.a.ProgramPageInstant(ppn, tags, data, true) == nil
}

// Recover implements the reboot path of the recovery manager (paper §3.4.2):
// recharge the capacitors, replay the write-backs stored in the dump area
// through the normal program path (reflecting them in the mapping table),
// then clear the dump area and the emergency state. Running it twice in a
// row replays the same pages to the same result (TestRecoveryIdempotent).
// Surviving a second power failure during recovery relies on one ordering:
// every replayed page is programmed before the dump area is erased, so a
// cut before the erase leaves the whole dump to replay again. No test or
// tool cuts power during recovery yet; ROADMAP item 6 is the test that
// will check it.
func Recover(p *sim.Proc, f *ftl.FTL, recharge time.Duration, stats *storage.Stats) error {
	p.Sleep(recharge)
	req := f.Registry().NewReq(p, iotrace.OpRecovery, iotrace.OriginUnknown, 0, 0)
	defer req.Finish(p)
	a := f.Array()
	ppb := a.Config().PagesPerBlock
	ss := f.SlotSize()

	type dumpPage struct {
		seq   uint64
		slots []ftl.SlotWrite
	}
	var pages []dumpPage
	for _, blk := range f.DumpBlockIDs() {
		first := a.PageOfBlock(blk)
		for i := 0; i < ppb; i++ {
			ppn := first + nand.PPN(i)
			meta := a.Meta(ppn)
			if meta == nil || !meta.Dump || len(meta.Slots) == 0 {
				continue // erased, or a mapping-entry page (no replay needed)
			}
			var buf []byte
			if a.Data(ppn) != nil {
				buf = make([]byte, a.Config().PageSize)
			}
			if err := a.ReadPage(p, req, ppn, buf); err != nil {
				return err
			}
			dp := dumpPage{seq: meta.Seq}
			for si, tag := range meta.Slots {
				// Torn dump pages (a program the dying capacitors failed to
				// finish) are detectable and must not be replayed — the dump
				// logic already re-programmed their slots at a higher seq.
				if tag.LPN == nand.InvalidLPN || tag.Torn {
					continue
				}
				var d []byte
				if buf != nil {
					d = append([]byte(nil), buf[si*ss:(si+1)*ss]...)
				}
				dp.slots = append(dp.slots, ftl.SlotWrite{LPN: tag.LPN, Data: d})
			}
			if len(dp.slots) > 0 {
				pages = append(pages, dp)
			}
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].seq < pages[j].seq })
	for _, dp := range pages {
		if err := f.Program(p, req, dp.slots); err != nil {
			return err
		}
	}
	for _, blk := range f.DumpBlockIDs() {
		if a.Meta(a.PageOfBlock(blk)) == nil {
			// Cheap check: block already erased (no page 0 metadata and
			// dumps fill pages in order).
			continue
		}
		if err := a.EraseBlock(p, req, blk); err != nil {
			return err
		}
	}
	f.ClearMapDirty() // replay re-dirtied entries; they are map-journal clean now
	if stats != nil {
		stats.Recoveries++
	}
	return nil
}
