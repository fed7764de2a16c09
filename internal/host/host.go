// Package host models the host-side storage stack between a database
// engine and a device: a minimal extent-based filesystem with O_DIRECT
// semantics, fsync/fdatasync, O_DSYNC files and — the knob the paper turns —
// write barriers.
//
// With barriers on (the safe default for volatile-cache devices), fsync
// sends a flush-cache command to the device (paper Figure 2). With barriers
// off, fsync completes once the device has acknowledged the writes — which
// is only safe when the device cache is durable, i.e. DuraSSD (§2.2).
package host

import (
	"fmt"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// FS is a minimal filesystem over one device.
type FS struct {
	dev     storage.Device
	reg     *iotrace.Registry
	barrier bool
	next    storage.LPN // bump allocator for extents
	files   map[string]*File

	// FsyncCPU is the host-side bookkeeping cost of an fsync call.
	FsyncCPU time.Duration
}

// NewFS creates a filesystem on dev with write barriers in the given state.
func NewFS(dev storage.Device, barrier bool) *FS {
	return &FS{
		dev:      dev,
		reg:      dev.Registry(),
		barrier:  barrier,
		files:    make(map[string]*File),
		FsyncCPU: 3 * time.Microsecond,
	}
}

// Device returns the underlying device.
func (fs *FS) Device() storage.Device { return fs.dev }

// File is a preallocated extent of device pages opened with O_DIRECT.
type File struct {
	fs     *FS
	name   string
	base   storage.LPN
	pages  int64
	meta   storage.LPN // the file's inode/metadata page
	dsync  bool        // O_DSYNC: every write is followed by a barrier
	origin iotrace.Origin
}

// Create preallocates a file of the given size in device pages.
func (fs *FS) Create(name string, pages int64) (*File, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("host: file %q size must be positive", name)
	}
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("host: file %q exists", name)
	}
	// One metadata page, then the extent.
	need := pages + 1
	if int64(fs.next)+need > fs.dev.Pages() {
		return nil, fmt.Errorf("host: device full creating %q (%d pages)", name, pages)
	}
	f := &File{fs: fs, name: name, meta: fs.next, base: fs.next + 1, pages: pages}
	fs.next += storage.LPN(need)
	fs.files[name] = f
	return f, nil
}

// Open returns an existing file.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("host: file %q not found", name)
	}
	return f, nil
}

// SetODSync puts the file in O_DSYNC mode: every write is immediately
// followed by a write barrier (when barriers are enabled). The commercial
// database in the paper's TPC-C experiment opens its files this way.
func (f *File) SetODSync(on bool) { f.dsync = on }

// SetOrigin tags every request issued through this file with the given
// database-level origin (redo log, double-write buffer, data pages, ...).
func (f *File) SetOrigin(o iotrace.Origin) { f.origin = o }

// Origin returns the file's request origin tag.
func (f *File) Origin() iotrace.Origin { return f.origin }

// Name returns the file name.
func (f *File) Name() string { return f.name }

// PageSize returns the underlying device page size in bytes.
func (f *File) PageSize() int { return f.fs.dev.PageSize() }

// Pages returns the file size in device pages.
func (f *File) Pages() int64 { return f.pages }

// WritePages writes n device pages at page offset off as one command
// (O_DIRECT: no host page cache).
func (f *File) WritePages(p *sim.Proc, off int64, n int, data []byte) error {
	if off < 0 || off+int64(n) > f.pages {
		return fmt.Errorf("host: write beyond EOF of %q (off %d, n %d)", f.name, off, n) //simlint:allow hotalloc the caller addressed pages the file does not have: a bug in it, reported
	}
	lpn := f.base + storage.LPN(off)
	req := f.fs.reg.NewReq(p, iotrace.OpWrite, f.origin, uint64(lpn), n)
	err := f.fs.dev.Write(p, req, lpn, n, data)
	req.Finish(p)
	if err != nil {
		return err
	}
	if f.dsync && f.fs.barrier {
		freq := f.fs.reg.NewReq(p, iotrace.OpFlush, f.origin, 0, 0)
		err = f.fs.dev.Flush(p, freq)
		freq.Finish(p)
		return err
	}
	return nil
}

// ReadPages reads n device pages at page offset off as one command.
func (f *File) ReadPages(p *sim.Proc, off int64, n int, buf []byte) error {
	if off < 0 || off+int64(n) > f.pages {
		return fmt.Errorf("host: read beyond EOF of %q (off %d, n %d)", f.name, off, n) //simlint:allow hotalloc the caller addressed pages the file does not have: a bug in it, reported
	}
	lpn := f.base + storage.LPN(off)
	req := f.fs.reg.NewReq(p, iotrace.OpRead, f.origin, uint64(lpn), n)
	err := f.fs.dev.Read(p, req, lpn, n, buf)
	req.Finish(p)
	return err
}

// Fsync persists data and metadata. With barriers on it writes the file's
// metadata page (journal commit) and sends flush-cache to the device
// (paper Figure 2). With barriers off the journal commit happens
// asynchronously and the data writes were already acknowledged, so fsync
// costs only CPU — this is exactly why the paper's "NoBarrier" rows are
// flat across fsync frequencies.
func (f *File) Fsync(p *sim.Proc) error {
	p.Sleep(f.fs.FsyncCPU)
	if !f.fs.barrier {
		return nil
	}
	mreq := f.fs.reg.NewReq(p, iotrace.OpWrite, iotrace.OriginMeta, uint64(f.meta), 1)
	err := f.fs.dev.Write(p, mreq, f.meta, 1, nil)
	mreq.Finish(p)
	if err != nil {
		return err
	}
	freq := f.fs.reg.NewReq(p, iotrace.OpFlush, f.origin, 0, 0)
	err = f.fs.dev.Flush(p, freq)
	freq.Finish(p)
	return err
}

// Fdatasync persists data only (no metadata write); with barriers on it
// still sends flush-cache.
func (f *File) Fdatasync(p *sim.Proc) error {
	p.Sleep(f.fs.FsyncCPU)
	if f.fs.barrier {
		freq := f.fs.reg.NewReq(p, iotrace.OpFlush, f.origin, 0, 0)
		err := f.fs.dev.Flush(p, freq)
		freq.Finish(p)
		return err
	}
	return nil
}

// Preloader is implemented by devices that support instant bulk loads
// (database initialization before a measured run).
type Preloader interface {
	PreloadPages(lpn storage.LPN, n int64, data []byte) error
}

// Preload installs n pages of the file instantly, starting at page offset
// off. data may be nil (timing-only) or n*PageSize bytes.
func (f *File) Preload(off, n int64, data []byte) error {
	pl, ok := f.fs.dev.(Preloader)
	if !ok {
		return fmt.Errorf("host: device does not support preloading")
	}
	return pl.PreloadPages(f.base+storage.LPN(off), n, data)
}
