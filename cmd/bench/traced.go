package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
)

// tracedDevice decorates one SSD at the storage.Device boundary — the one
// seam every engine and host.FS in the repository calls through — and
// records a span per Read/Write/Flush: who called (the simulated process),
// for what (op, origin) and from when to when in virtual time. Embedding
// the device forwards everything else unchanged: PowerFail/Reboot
// (storage.PowerCycler), PreloadPages (host.Preloader), InjectReadErrors
// (storage.MediaFaulter), Stats, Registry, the geometry.
//
// The device's own iotrace layer spans (host queue, link, firmware, cache,
// flush drain, FTL, GC, NAND; exclusive time each) arrive through the
// registry's span sink and are stored as children of the device call that
// carried the request; background requests (write-back, GC, scrub) have no
// caller and become roots. Recording only reads the virtual clock, so a
// traced round replays the untraced schedule and sim_digest bit for bit.
//
// A tracedDevice belongs to its device's engine: in the parallel shards
// workload each domain's worker thread appends only to its own decorator.
type tracedDevice struct {
	*ssd.Device
	id       int
	on       bool // set at the start of the measured phase
	spans    []span
	procs    []string         // interned process names
	procID   map[string]int32 // name → index in procs
	lastCall int32            // index of the newest device-call span
}

// span is one recorded interval. Parent indexes spans of the same device;
// -1 marks a root (a device call, or a background request's top layer).
type span struct {
	Parent int32
	Proc   int32 // index into procs; -1 for layer spans
	Layer  int8  // iotrace.Layer, or -1 for a device call
	Op     iotrace.Op
	Origin iotrace.Origin
	Start  time.Duration
	End    time.Duration
	Excl   time.Duration // End-Start minus the time child spans cover
}

var (
	_ storage.Device       = (*tracedDevice)(nil)
	_ storage.PowerCycler  = (*tracedDevice)(nil)
	_ storage.MediaFaulter = (*tracedDevice)(nil)
)

func (d *tracedDevice) enable() {
	d.on = true
	d.lastCall = -1
	d.procID = map[string]int32{}
	reg := d.Registry()
	reg.EnableTracing(true)
	reg.SetSpanSink(d.sink)
}

func (d *tracedDevice) Read(p *sim.Proc, req iotrace.Req, lpn storage.LPN, n int, buf []byte) error {
	start := p.Now()
	err := d.Device.Read(p, req, lpn, n, buf)
	d.called(p, req, start)
	return err
}

func (d *tracedDevice) Write(p *sim.Proc, req iotrace.Req, lpn storage.LPN, n int, data []byte) error {
	start := p.Now()
	err := d.Device.Write(p, req, lpn, n, data)
	d.called(p, req, start)
	return err
}

func (d *tracedDevice) Flush(p *sim.Proc, req iotrace.Req) error {
	start := p.Now()
	err := d.Device.Flush(p, req)
	d.called(p, req, start)
	return err
}

func (d *tracedDevice) called(p *sim.Proc, req iotrace.Req, start time.Duration) {
	if !d.on {
		return
	}
	id, ok := d.procID[p.Name()]
	if !ok {
		id = int32(len(d.procs))
		d.procs = append(d.procs, p.Name())
		d.procID[p.Name()] = id
	}
	end := p.Now()
	d.lastCall = int32(len(d.spans))
	d.spans = append(d.spans, span{Parent: -1, Proc: id, Layer: -1, Op: req.Op, Origin: req.Origin, Start: start, End: end, Excl: end - start})
}

// sink receives a finished traced request. host.File finishes a host
// command right after the device call returns, on the same process with no
// yield between, so the newest device-call span is the request's caller.
func (d *tracedDevice) sink(req iotrace.Req, recs []iotrace.SpanRec) {
	caller := int32(-1)
	if req.Op <= iotrace.OpFlush && d.lastCall >= 0 {
		caller = d.lastCall
		d.lastCall = -1
		var covered time.Duration
		for _, r := range recs {
			if r.Depth == 0 {
				covered += r.End - r.Start
			}
		}
		d.spans[caller].Excl -= covered
	}
	var open [8]int32 // innermost span index per nesting depth
	for _, r := range recs {
		parent := caller
		if r.Depth > 0 && r.Depth <= len(open) {
			parent = open[r.Depth-1]
		}
		if r.Depth < len(open) {
			open[r.Depth] = int32(len(d.spans))
		}
		d.spans = append(d.spans, span{Parent: parent, Proc: -1, Layer: int8(r.Layer), Op: req.Op, Origin: req.Origin, Start: r.Start, End: r.End, Excl: r.Excl})
	}
}

// callTime returns the virtual time spent inside device calls by processes
// whose name starts with one of the prefixes.
func (d *tracedDevice) callTime(prefixes []string) time.Duration {
	match := make([]bool, len(d.procs))
	for i, name := range d.procs {
		for _, p := range prefixes {
			match[i] = match[i] || strings.HasPrefix(name, p)
		}
	}
	var total time.Duration
	for _, s := range d.spans {
		if s.Layer < 0 && match[s.Proc] {
			total += s.End - s.Start
		}
	}
	return total
}

// layerTime returns the exclusive virtual time all requests of the
// measured phase spent in layer l on this device.
func (d *tracedDevice) layerTime(l iotrace.Layer) time.Duration {
	return d.Registry().LayerLatency(l).Sum()
}

// writeSpans writes every recorded span to path, one JSON object per line.
func writeSpans(path string, devs []*tracedDevice) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // a second Close after the checked one below is harmless
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		Dev     int    `json:"dev"`
		ID      int    `json:"id"`
		Parent  int32  `json:"parent"`
		Name    string `json:"name"`
		Proc    string `json:"proc,omitempty"`
		Op      string `json:"op"`
		Origin  string `json:"origin"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		ExclNS  int64  `json:"excl_ns"`
	}
	for _, d := range devs {
		for i, s := range d.spans {
			l := line{Dev: d.id, ID: i, Parent: s.Parent, Name: "device call", Op: s.Op.String(), Origin: s.Origin.String(),
				StartNS: int64(s.Start), EndNS: int64(s.End), ExclNS: int64(s.Excl)}
			if s.Layer >= 0 {
				l.Name = iotrace.Layer(s.Layer).String()
			} else {
				l.Proc = d.procs[s.Proc]
			}
			if err := enc.Encode(l); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// sumStats adds up the cumulative counters of every device.
func sumStats(devs []*ssd.Device) iotrace.Stats {
	var total iotrace.Stats
	for _, d := range devs {
		addStats(&total, d.Stats(), 1)
	}
	return total
}

// addStats sets dst += sign × src over every counter of iotrace.Stats (all
// int64), so a counter added there is carried here without an edit.
func addStats(dst, src *iotrace.Stats, sign int64) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < d.NumField(); i++ {
		d.Field(i).SetInt(d.Field(i).Int() + sign*s.Field(i).Int())
	}
}
