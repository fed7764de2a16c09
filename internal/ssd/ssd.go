// Package ssd assembles complete flash SSD devices from the nand, ftl and
// core building blocks, and supplies the calibrated device profiles used in
// the paper's evaluation: the DuraSSD prototype, two commercial volatile-
// cache drives (SSD-A with 512 MB and SSD-B with 128 MB of cache), all
// behind a SATA-like host interface with native command queuing.
//
// Command timing decomposes into a serialized link component (per-command
// protocol overhead plus data transfer at the link rate) and a firmware
// component that overlaps across queued commands. The profiles are
// calibrated so the paper's Table 1 / Table 2 columns land in the right
// decade; the shapes (fsync sensitivity, page-size effect, cache on/off)
// emerge from the mechanisms rather than the constants.
package ssd

import (
	"time"

	"durassd/internal/core"
	"durassd/internal/devfront"
	"durassd/internal/ftl"
	"durassd/internal/iotrace"
	"durassd/internal/nand"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// Profile describes one drive model.
type Profile struct {
	Name string

	NAND  nand.Config
	FTL   ftl.Config
	Cache core.Config

	// Host interface.
	LinkMBps         int           // serialized link bandwidth
	WriteCmdOverhead time.Duration // serialized per write command
	ReadCmdOverhead  time.Duration // serialized per read command
	FirmwareWrite    time.Duration // overlapping per write command
	FirmwareRead     time.Duration // overlapping per read command
	NCQDepth         int           // outstanding commands (SATA NCQ: 32); 0 = no host-visible queue
}

// DuraSSD returns the paper's prototype: durable cache, dump area, lazy
// mapping, 4 KB mapping units over 8 KB NAND pages. scale shrinks capacity
// (see nand.EnterpriseConfig).
func DuraSSD(scale int) Profile {
	ncfg := nand.EnterpriseConfig(scale)
	fcfg := ftl.DefaultConfig(ncfg.PageSize)
	fcfg.DumpBlocks = ncfg.Planes() // one pre-erased dump block per plane
	// Media-error handling: retry reads a few times with growing backoff
	// (read-retry reference-voltage shifts), and rewrite any page whose
	// corrected-bit count reaches half the ECC budget. Both are inert on
	// clean media; bad-block retirement and scrubbing stay off unless a
	// campaign opts in (ReserveBlocks / ScrubInterval).
	fcfg.ReadRetries = 3
	fcfg.RetryBackoff = 80 * time.Microsecond
	fcfg.RefreshThreshold = 4
	ccfg := core.Config{
		Frames:         4096,
		Durable:        true,
		FlushWorkers:   ncfg.Planes(),
		SlotAccess:     2 * time.Microsecond,
		FlushAck:       1500 * time.Microsecond,
		RebootRecharge: 100 * time.Millisecond,
	}
	return Profile{
		Name:             "DuraSSD",
		NAND:             ncfg,
		FTL:              fcfg,
		Cache:            ccfg,
		LinkMBps:         550,
		WriteCmdOverhead: 12 * time.Microsecond,
		ReadCmdOverhead:  4 * time.Microsecond,
		FirmwareWrite:    44 * time.Microsecond,
		FirmwareRead:     20 * time.Microsecond,
		NCQDepth:         32,
	}
}

// SSDA returns the volatile-cache commercial drive "SSD-A" (512 MB cache):
// throughput close to DuraSSD when flushes are rare, but fsync must drain
// the cache and journal the mapping, and power loss drops the cache.
func SSDA(scale int) Profile {
	p := DuraSSD(scale)
	p.Name = "SSD-A"
	p.NAND.ProgramLatency = 1100 * time.Microsecond
	p.FTL.DumpBlocks = 0
	p.FTL.EagerMapping = true
	p.Cache.Durable = false
	p.Cache.Frames = 4096
	p.Cache.FlushAck = 0
	p.WriteCmdOverhead = 16 * time.Microsecond
	p.FirmwareWrite = 64 * time.Microsecond
	return p
}

// SSDB returns the volatile-cache commercial drive "SSD-B" (128 MB cache):
// a slower host path but a leaner firmware whose flush-cache is cheaper.
func SSDB(scale int) Profile {
	p := DuraSSD(scale)
	p.Name = "SSD-B"
	p.NAND.ProgramLatency = 500 * time.Microsecond
	p.NAND.Channels = 4
	p.NAND.BlocksPerPlane *= 2 // keep capacity when halving channels
	p.FTL.DumpBlocks = 0
	p.FTL.EagerMapping = true
	p.Cache.Durable = false
	p.Cache.Frames = 1024
	p.Cache.FlushAck = 0
	p.WriteCmdOverhead = 24 * time.Microsecond
	p.FirmwareWrite = 90 * time.Microsecond
	p.ReadCmdOverhead = 8 * time.Microsecond
	p.FirmwareRead = 40 * time.Microsecond
	return p
}

// Device is a complete SSD. It implements storage.Device and
// storage.PowerCycler. The host-interface machinery (NCQ, serialized link,
// non-queued flush admission, power gating) lives in the shared devfront
// layer; this type composes it with the flash back-end (cache, FTL, NAND).
type Device struct {
	prof  Profile
	eng   *sim.Engine
	arr   *nand.Array
	f     *ftl.FTL
	ctrl  *core.Controller
	cut   *core.Controller // the controller the last reboot replaced, kept only for Release
	front *devfront.Front
	reg   *iotrace.Registry
	stats *storage.Stats

	cacheOn bool

	// slotsPool recycles the per-command SlotWrite scratch. A command holds
	// its slice exclusively from getSlots to putSlots (the cache controller
	// copies slot data during staging), so concurrent commands simply draw
	// distinct slices.
	slotsPool [][]ftl.SlotWrite
}

func (d *Device) getSlots(n int) []ftl.SlotWrite {
	if last := len(d.slotsPool) - 1; last >= 0 {
		s := d.slotsPool[last]
		d.slotsPool[last] = nil
		d.slotsPool = d.slotsPool[:last]
		if cap(s) >= n {
			s = s[:n]
			for i := range s {
				s[i] = ftl.SlotWrite{}
			}
			return s
		}
	}
	return make([]ftl.SlotWrite, n) //simlint:allow hotalloc pool miss fallback; steady state recycles pooled slices
}

func (d *Device) putSlots(s []ftl.SlotWrite) {
	if cap(s) == 0 || len(d.slotsPool) >= 8 {
		return
	}
	d.slotsPool = append(d.slotsPool, s[:0])
}

// New builds a powered-on, empty device from the profile.
func New(eng *sim.Engine, prof Profile) (*Device, error) {
	reg := iotrace.NewRegistry()
	arr, err := nand.New(eng, prof.NAND, reg)
	if err != nil {
		return nil, err
	}
	f, err := ftl.New(arr, prof.FTL, reg)
	if err != nil {
		return nil, err
	}
	d := &Device{
		prof: prof,
		eng:  eng,
		arr:  arr,
		f:    f,
		front: devfront.New(eng, devfront.Config{
			LinkMBps:      prof.LinkMBps,
			ReadOverhead:  prof.ReadCmdOverhead,
			WriteOverhead: prof.WriteCmdOverhead,
			FlushOverhead: prof.WriteCmdOverhead, // flush issues as a write-class command
			Depth:         prof.NCQDepth,
		}, reg),
		reg:     reg,
		stats:   reg.Stats(),
		cacheOn: true,
	}
	d.ctrl = core.NewController(f, prof.Cache, reg)
	f.StartScrubber() // no-op unless the profile configures ScrubInterval
	return d, nil
}

// SetWriteCache enables or disables the volatile/durable write cache
// (Table 1's "Storage Cache OFF/ON" knob). Disable only while idle.
func (d *Device) SetWriteCache(on bool) { d.cacheOn = on }

// Profile returns the device profile.
func (d *Device) Profile() Profile { return d.prof }

// Array exposes the NAND medium (fault-injection harnesses).
func (d *Device) Array() *nand.Array { return d.arr }

// PageSize returns the mapping unit (4 KB).
func (d *Device) PageSize() int { return d.f.SlotSize() }

// Pages returns the logical capacity in mapping units.
func (d *Device) Pages() int64 { return d.f.LogicalSlots() }

// Stats returns the device counters.
func (d *Device) Stats() *storage.Stats { return d.stats }

// Registry returns the device's unified metrics registry.
func (d *Device) Registry() *iotrace.Registry { return d.reg }

// Write submits one write command covering n mapping units from lpn.
//
//simlint:hotpath
func (d *Device) Write(p *sim.Proc, req iotrace.Req, lpn storage.LPN, n int, data []byte) error {
	if err := d.front.AdmitRange(lpn, n, d.f.LogicalSlots()); err != nil {
		return err
	}
	ss := d.f.SlotSize()
	if err := devfront.CheckBuf("ssd: write", data, n, ss); err != nil {
		return err
	}
	d.front.Enqueue(p, req)
	defer d.front.Dequeue()

	// Serialized host-link occupancy: protocol overhead + data transfer.
	d.front.TransferIn(p, req, n*ss)
	// Firmware command handling overlaps across queued commands.
	fsp := req.Begin(p, iotrace.LayerFirmware)
	p.Sleep(d.prof.FirmwareWrite)
	fsp.End(p)
	if err := d.front.Interrupted(); err != nil {
		return err
	}

	slots := d.getSlots(n)
	defer d.putSlots(slots)
	for i := 0; i < n; i++ {
		slots[i].LPN = lpn + storage.LPN(i)
		slots[i].Origin = req.Origin
		if data != nil {
			slots[i].Data = data[i*ss : (i+1)*ss]
		}
	}
	var err error
	if d.cacheOn {
		err = d.ctrl.Write(p, req, slots)
	} else {
		// Write-through: program slot pairs directly (a lone 4 KB slot
		// still consumes a full physical page — §3.1.2's pairing only
		// happens in the cache).
		spp := d.f.SlotsPerPage()
		for start := 0; start < n && err == nil; start += spp {
			end := start + spp
			if end > n {
				end = n
			}
			err = d.f.Program(p, req, slots[start:end])
		}
	}
	if err != nil {
		return err
	}
	d.front.CompleteWrite(req, n)
	d.reg.Emit(iotrace.EvWriteAck, p.Now())
	return nil
}

// Read submits one read command covering n mapping units from lpn.
//
//simlint:hotpath
func (d *Device) Read(p *sim.Proc, req iotrace.Req, lpn storage.LPN, n int, buf []byte) error {
	if err := d.front.AdmitRange(lpn, n, d.f.LogicalSlots()); err != nil {
		return err
	}
	ss := d.f.SlotSize()
	if err := devfront.CheckBuf("ssd: read", buf, n, ss); err != nil {
		return err
	}
	d.front.Enqueue(p, req)
	defer d.front.Dequeue()

	fsp := req.Begin(p, iotrace.LayerFirmware)
	p.Sleep(d.prof.FirmwareRead)
	fsp.End(p)
	if err := d.front.Interrupted(); err != nil {
		return err
	}
	// Serve each slot from cache when resident, flash otherwise; with
	// the write cache off every slot comes from flash.
	var err error
	for i := 0; i < n && err == nil; i++ {
		var sb []byte
		if buf != nil {
			sb = buf[i*ss : (i+1)*ss]
		}
		if d.cacheOn {
			err = d.ctrl.Read(p, req, lpn+storage.LPN(i), sb)
		} else {
			err = d.f.ReadSlot(p, req, lpn+storage.LPN(i), sb)
		}
	}
	if err != nil {
		return err
	}
	// Data transfer back to the host.
	d.front.TransferOut(p, req, n*ss)
	if err := d.front.Interrupted(); err != nil {
		return err
	}
	d.front.CompleteRead(req, n)
	return nil
}

// Flush submits a flush-cache command (fsync with write barriers on).
// Flush-cache is a non-queued command — the devfront admission serializes
// it against other flushes and drains the NCQ first — which is exactly why
// fsync storms crater throughput (Table 1) and inflate tail latency
// (Table 3) on every drive that must honor them.
func (d *Device) Flush(p *sim.Proc, req iotrace.Req) error {
	if err := d.front.FlushEnter(p, req); err != nil {
		return err
	}
	defer d.front.FlushExit()
	d.reg.Emit(iotrace.EvFlushStart, p.Now())
	var err error
	if d.cacheOn {
		err = d.ctrl.FlushCache(p, req)
	} else {
		err = d.f.FlushMapJournal(p, req)
	}
	if err != nil {
		return err
	}
	d.front.CompleteFlush()
	d.reg.Emit(iotrace.EvFlushEnd, p.Now())
	return nil
}

// PowerFail cuts power instantly (storage.PowerCycler).
func (d *Device) PowerFail() {
	if !d.front.PowerFail() {
		return
	}
	d.arr.PowerFail()
	d.ctrl.PowerFail()
}

// Reboot restores power and runs device recovery: for DuraSSD, capacitor
// recharge plus dump replay; for volatile drives, a mapping rebuild from
// the OOB metadata already on flash.
func (d *Device) Reboot(p *sim.Proc) error {
	if !d.front.Offline() {
		return nil
	}
	d.arr.PowerOn()
	if d.prof.Cache.Durable {
		if err := core.Recover(p, d.f, d.prof.Cache.RebootRecharge, d.stats); err != nil {
			return err
		}
	} else {
		// Volatile drive: the mapping for everything that reached NAND is
		// reconstructed from OOB scans; cached-but-unflushed writes are
		// simply gone (already counted as LostPages).
		p.Sleep(50 * time.Millisecond)
		d.f.ClearMapDirty()
	}
	// Fresh controller over the same FTL: the old cache state died with
	// the power (its content, if durable, was replayed above).
	d.cut = d.ctrl
	d.ctrl = core.NewController(d.f, d.prof.Cache, d.reg)
	d.front.PowerOn()
	return nil
}

// Release hands the device's page-sized memory — the NAND array's page
// images and block slabs, and the frame buffers of its cache controllers,
// the current one and the one the last reboot replaced — to process-wide
// free lists, where the next device built in the process takes it instead
// of allocating. Crash rigs, which build a device for every crash point,
// call it as they tear a point's rig down. Call it only once the engine the
// device runs on is closed: the device must not be used again.
func (d *Device) Release() {
	d.ctrl.Release()
	if d.cut != nil {
		d.cut.Release()
	}
	d.arr.Release()
}

// InjectReadErrors plants bits stuck bit errors on the physical page
// backing lpn (storage.MediaFaulter). It evicts lpn's clean cache frame
// first so the next read actually touches the damaged flash. Returns false
// when the slot is unmapped, still dirty in the cache (the damage would be
// invisible: the cache copy wins), or the page is not programmed.
func (d *Device) InjectReadErrors(lpn storage.LPN, bits int) bool {
	if !d.ctrl.DropClean(lpn) {
		return false
	}
	ppn, ok := d.f.PhysPageOf(lpn)
	if !ok {
		return false
	}
	return d.arr.InjectBitErrors(ppn, bits)
}

// PreloadPages installs n logical pages instantly starting at lpn, so that
// random reads hit mapped data and GC behaves as on a used drive. data may
// be nil (timing-only) or n*PageSize bytes. The slots go to the FTL in
// batches of at most 4,096, and a smaller preload sizes its batch to fit.
func (d *Device) PreloadPages(lpn storage.LPN, n int64, data []byte) error {
	const batch = 4096
	ss := d.f.SlotSize()
	slots := make([]ftl.SlotWrite, 0, min(max(n, 0), batch))
	for i := int64(0); i < n; i++ {
		sw := ftl.SlotWrite{LPN: lpn + storage.LPN(i)}
		if data != nil {
			sw.Data = data[i*int64(ss) : (i+1)*int64(ss)]
		}
		slots = append(slots, sw)
		if len(slots) == batch {
			if err := d.f.LoadSlots(slots); err != nil {
				return err
			}
			slots = slots[:0]
		}
	}
	if len(slots) > 0 {
		return d.f.LoadSlots(slots)
	}
	return nil
}

var (
	_ storage.Device       = (*Device)(nil)
	_ storage.PowerCycler  = (*Device)(nil)
	_ storage.MediaFaulter = (*Device)(nil)
)
