// Package devfront is the composable host-interface front-end shared by
// every simulated device in this repository. Before it existed, the SSD and
// HDD models each hand-rolled the same plumbing: a native command queue,
// a serialized host link, non-queued flush-cache semantics, power-state
// gating, multi-page range validation and the iotrace span + registry
// wiring. That machinery is the *host-visible* half of a device — identical
// across flash, magnetic and composed (multi-device volume) back-ends — so
// it lives here exactly once.
//
// A Front owns:
//
//   - the command queue (SATA NCQ: a counting resource of queue-depth
//     units; devices without a host-visible queue set Depth 0),
//   - the serialized link (protocol overhead + data transfer at the link
//     rate; one command's transfer occupies the link at a time),
//   - flush-cache admission: flush is a *non-queued* command, so it
//     serializes against other flushes and drains the whole NCQ before it
//     executes — the mechanism behind every "fsync storms poison reads"
//     result in the paper,
//   - the power state (Admit gates new commands with ErrOffline; Interrupted
//     converts a mid-command power cut into ErrPowerFail),
//   - uniform, overflow-safe ErrOutOfRange checking for multi-page
//     commands, and
//   - the device's unified metrics registry plus the host-command counters.
//
// Back-ends (internal/ssd, internal/hdd, internal/vol) compose these
// primitives in the order their hardware would: an SSD write is
// enqueue → transfer-in → firmware → media, an SSD read is
// enqueue → firmware → media → transfer-out, a disk write is
// transfer-in → cache/arm. The Front never sleeps on its own: every
// primitive is explicit, so each device's command timing remains fully
// visible in its own code.
package devfront

import (
	"fmt"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// Config describes the host-visible interface of a device.
type Config struct {
	LinkMBps      int           // serialized link bandwidth; 0 = infinitely fast link
	ReadOverhead  time.Duration // serialized protocol cost per read command
	WriteOverhead time.Duration // serialized protocol cost per write command
	FlushOverhead time.Duration // serialized protocol cost of issuing flush-cache
	Depth         int           // native command queue depth; 0 = no host-visible queue
}

// Front is the host-interface state of one device.
type Front struct {
	cfg       Config
	link      *sim.Resource
	ncq       *sim.Resource // nil when cfg.Depth == 0
	flushLock *sim.Resource // flush-cache commands serialize at the device
	reg       *iotrace.Registry
	stats     *storage.Stats
	offline   bool
}

// New builds a powered-on front with the given interface config, wired to
// the device's metrics registry.
func New(eng *sim.Engine, cfg Config, reg *iotrace.Registry) *Front {
	f := &Front{
		cfg:       cfg,
		link:      sim.NewResource(eng, 1),
		flushLock: sim.NewResource(eng, 1),
		reg:       reg,
		stats:     reg.Stats(),
	}
	if cfg.Depth > 0 {
		f.ncq = sim.NewResource(eng, cfg.Depth)
	}
	return f
}

// Registry returns the device's unified metrics registry.
func (f *Front) Registry() *iotrace.Registry { return f.reg }

// Stats returns the device's live counters.
func (f *Front) Stats() *storage.Stats { return f.stats }

// Offline reports whether the device is powered off.
func (f *Front) Offline() bool { return f.offline }

// PowerFail marks the device offline and reports whether it was online
// (false means the call was a no-op on an already-dark device).
func (f *Front) PowerFail() bool {
	if f.offline {
		return false
	}
	f.offline = true
	return true
}

// PowerOn restores the power state after a reboot.
func (f *Front) PowerOn() { f.offline = false }

// Admit gates a newly submitted command on the power state.
func (f *Front) Admit() error {
	if f.offline {
		return storage.ErrOffline
	}
	return nil
}

// Interrupted reports ErrPowerFail if power was cut while the command was
// in flight (the command's effect is undefined), nil otherwise.
func (f *Front) Interrupted() error {
	if f.offline {
		return storage.ErrPowerFail
	}
	return nil
}

// CheckRange validates one multi-page command against a device of the given
// capacity: the command must cover at least one page and every page must lie
// inside the device. The comparison is carried out in uint64 so that an
// address beyond 2^63 cannot wrap into the valid range — commands that start
// in range but run past the end fail here, *before* any side effect.
func CheckRange(lpn storage.LPN, n int, pages int64) error {
	if n <= 0 || pages <= 0 {
		return storage.ErrOutOfRange
	}
	if uint64(lpn) >= uint64(pages) || uint64(n) > uint64(pages)-uint64(lpn) {
		return storage.ErrOutOfRange
	}
	return nil
}

// CheckBuf validates an optional data buffer for an n-page command: nil
// (timing-only) or exactly n*pageSize bytes.
func CheckBuf(name string, buf []byte, n, pageSize int) error {
	if buf != nil && len(buf) != n*pageSize {
		return fmt.Errorf("%s: buffer length %d != %d", name, len(buf), n*pageSize) //simlint:allow hotalloc error construction on a malformed request; never taken at steady state
	}
	return nil
}

// AdmitRange combines the power gate and the range check — the uniform
// prologue of every read and write command.
//
//simlint:hotpath
func (f *Front) AdmitRange(lpn storage.LPN, n int, pages int64) error {
	if err := f.Admit(); err != nil {
		return err
	}
	return CheckRange(lpn, n, pages)
}

// Enqueue occupies one command-queue slot, recording the wait as a
// host-queue span. Pair every Enqueue with exactly one Dequeue. Devices
// without a host-visible queue (Depth 0) get a no-op pair. The explicit
// pair (instead of a returned release closure) keeps the per-command hot
// path allocation-free.
//
//simlint:hotpath
func (f *Front) Enqueue(p *sim.Proc, req iotrace.Req) {
	if f.ncq == nil {
		return
	}
	qsp := req.Begin(p, iotrace.LayerHostQueue)
	f.ncq.Acquire(p, 1)
	qsp.End(p)
}

// Dequeue returns the command-queue slot taken by Enqueue.
//
//simlint:hotpath
func (f *Front) Dequeue() {
	if f.ncq != nil {
		f.ncq.Release(1)
	}
}

// xfer returns the serialized link occupancy of moving the given payload:
// per-command protocol overhead plus data transfer at the link rate.
func (f *Front) xfer(bytes int, overhead time.Duration) time.Duration {
	d := overhead
	if f.cfg.LinkMBps > 0 && bytes > 0 {
		d += time.Duration(float64(bytes) / float64(f.cfg.LinkMBps*storage.MB) * float64(time.Second))
	}
	return d
}

// TransferIn occupies the link for a host-to-device transfer of the given
// payload (write command: protocol overhead + data), recorded as a link
// span.
//
//simlint:hotpath
func (f *Front) TransferIn(p *sim.Proc, req iotrace.Req, bytes int) {
	f.occupy(p, req, f.xfer(bytes, f.cfg.WriteOverhead))
}

// TransferOut occupies the link for a device-to-host transfer of the given
// payload (read completion), recorded as a link span.
//
//simlint:hotpath
func (f *Front) TransferOut(p *sim.Proc, req iotrace.Req, bytes int) {
	f.occupy(p, req, f.xfer(bytes, f.cfg.ReadOverhead))
}

func (f *Front) occupy(p *sim.Proc, req iotrace.Req, d time.Duration) {
	lsp := req.Begin(p, iotrace.LayerLink)
	f.link.Use(p, d)
	lsp.End(p)
}

// FlushEnter performs the admission protocol of a flush-cache command:
// link protocol cost, then — because flush-cache is a *non-queued* command —
// serialization against other flushes and a full drain of the command
// queue. Commands arriving while the flush holds the queue wait behind it,
// which is how fsync storms poison read latency. On success the caller owes
// exactly one FlushExit once the device-specific flush work is done; on
// error the admission is rolled back internally and no FlushExit is owed.
func (f *Front) FlushEnter(p *sim.Proc, req iotrace.Req) error {
	if err := f.Admit(); err != nil {
		return err
	}
	if f.cfg.FlushOverhead > 0 {
		f.occupy(p, req, f.cfg.FlushOverhead)
	}
	qsp := req.Begin(p, iotrace.LayerHostQueue)
	f.flushLock.Acquire(p, 1)
	if f.ncq != nil {
		f.ncq.Acquire(p, f.cfg.Depth)
	}
	qsp.End(p)
	if err := f.Interrupted(); err != nil {
		f.FlushExit()
		return err
	}
	return nil
}

// FlushExit releases the flush-cache admission taken by a successful
// FlushEnter.
func (f *Front) FlushExit() {
	if f.ncq != nil {
		f.ncq.Release(f.cfg.Depth)
	}
	f.flushLock.Release(1)
}

// CompleteWrite records a successfully completed n-page host write.
//
//simlint:hotpath
func (f *Front) CompleteWrite(req iotrace.Req, n int) {
	f.stats.WriteCommands++
	f.stats.PagesWritten += int64(n)
	f.reg.AddOriginWrite(req.Origin, n)
}

// CompleteRead records a successfully completed n-page host read.
//
//simlint:hotpath
func (f *Front) CompleteRead(req iotrace.Req, n int) {
	f.stats.ReadCommands++
	f.stats.PagesRead += int64(n)
	f.reg.AddOriginRead(req.Origin, n)
}

// CompleteFlush records a successfully completed flush-cache command.
func (f *Front) CompleteFlush() { f.stats.FlushCommands++ }
