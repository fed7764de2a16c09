package iotrace

import (
	"testing"
	"time"

	"durassd/internal/sim"
	"durassd/internal/stats"
)

func TestZeroValueReqIsInertNoops(t *testing.T) {
	var q Req
	if q.tr != nil {
		t.Fatal("zero Req claims to be traced")
	}
	// Nil proc everywhere: the disabled path must never touch it.
	sp := q.Begin(nil, LayerNAND)
	sp.End(nil)
	q.Finish(nil)
	if q.tr != nil {
		t.Fatal("untraced request recorded spans")
	}
	if !q.WellNested() {
		t.Fatal("untraced request reports mis-nesting")
	}
}

func TestSpanExclusiveTime(t *testing.T) {
	eng := sim.New()
	reg := NewRegistry()
	reg.EnableTracing(true)
	eng.Go("io", func(p *sim.Proc) {
		q := reg.NewReq(p, OpWrite, OriginData, 0, 1)
		outer := q.Begin(p, LayerFirmware)
		p.Sleep(10 * time.Microsecond)
		inner := q.Begin(p, LayerNAND)
		p.Sleep(30 * time.Microsecond)
		inner.End(p)
		p.Sleep(5 * time.Microsecond)
		outer.End(p)
		q.Finish(p)

		spans := q.tr.spans
		if len(spans) != 2 {
			t.Fatalf("got %d spans", len(spans))
		}
		fw, nd := spans[0], spans[1]
		if fw.Layer != LayerFirmware || nd.Layer != LayerNAND {
			t.Fatalf("layers = %v, %v", fw.Layer, nd.Layer)
		}
		if fw.Depth != 0 || nd.Depth != 1 {
			t.Fatalf("depths = %d, %d", fw.Depth, nd.Depth)
		}
		// Outer ran 45us total but only 15us exclusively.
		if fw.End-fw.Start != 45*time.Microsecond || fw.Excl != 15*time.Microsecond {
			t.Fatalf("outer dur=%v excl=%v", fw.End-fw.Start, fw.Excl)
		}
		if nd.Excl != 30*time.Microsecond {
			t.Fatalf("inner excl=%v", nd.Excl)
		}
	})
	eng.Run()
	if reg.LayerLatency(LayerFirmware).Mean() != 15*time.Microsecond {
		t.Fatalf("firmware layer mean = %v", reg.LayerLatency(LayerFirmware).Mean())
	}
	if reg.LayerLatency(LayerNAND).Mean() != 30*time.Microsecond {
		t.Fatalf("NAND layer mean = %v", reg.LayerLatency(LayerNAND).Mean())
	}
	if reg.OpLatency(OpWrite).Count() != 1 {
		t.Fatal("op latency not recorded")
	}
}

func TestFinishClosesOpenSpans(t *testing.T) {
	eng := sim.New()
	reg := NewRegistry()
	reg.EnableTracing(true)
	var sunk []SpanRec
	reg.SetSpanSink(func(q Req, spans []SpanRec) { sunk = append(sunk, spans...) })
	eng.Go("io", func(p *sim.Proc) {
		q := reg.NewReq(p, OpFlush, OriginRedo, 0, 0)
		q.Begin(p, LayerFlushDrain)
		q.Begin(p, LayerFTL)
		p.Sleep(time.Microsecond)
		q.Finish(p) // both spans still open
		if !q.WellNested() {
			t.Error("auto-closed spans flagged as mis-nested")
		}
	})
	eng.Run()
	if len(sunk) != 2 {
		t.Fatalf("sink saw %d spans, want 2", len(sunk))
	}
	for _, sp := range sunk {
		if sp.End < sp.Start {
			t.Fatalf("span not closed: %+v", sp)
		}
	}
}

func TestMisNestedEndFlagsTrace(t *testing.T) {
	eng := sim.New()
	reg := NewRegistry()
	reg.EnableTracing(true)
	eng.Go("io", func(p *sim.Proc) {
		q := reg.NewReq(p, OpRead, OriginUnknown, 0, 1)
		a := q.Begin(p, LayerHostQueue)
		q.Begin(p, LayerNAND)
		a.End(p) // out of order: inner NAND span still open
		if q.WellNested() {
			t.Error("out-of-order End not detected")
		}
		q.Finish(p)
	})
	eng.Run()
}

func TestDisabledNewReqNeverTouchesProc(t *testing.T) {
	reg := NewRegistry()
	// A nil proc would panic if the disabled path read the clock.
	q := reg.NewReq(nil, OpWrite, OriginData, 7, 2)
	if q.tr != nil {
		t.Fatal("request traced while tracing disabled")
	}
	if q.LPN != 7 || q.N != 2 || q.Op != OpWrite || q.Origin != OriginData {
		t.Fatalf("request fields lost: %+v", q)
	}
}

func TestTracingTogglePerRequest(t *testing.T) {
	eng := sim.New()
	reg := NewRegistry()
	eng.Go("io", func(p *sim.Proc) {
		off := reg.NewReq(p, OpWrite, OriginData, 0, 1)
		reg.EnableTracing(true)
		on := reg.NewReq(p, OpWrite, OriginData, 0, 1)
		if off.tr != nil {
			t.Error("request created before enable is traced")
		}
		if on.tr == nil {
			t.Error("request created after enable is untraced")
		}
		on.Finish(p)
		off.Finish(p)
	})
	eng.Run()
}

func TestOriginCountersAndWA(t *testing.T) {
	reg := NewRegistry()
	if reg.Origin(OriginRedo).WriteAmplification() != 0 {
		t.Fatal("WA of idle origin not 0")
	}
	reg.AddOriginWrite(OriginRedo, 10)
	reg.AddOriginNAND(OriginRedo, 25)
	reg.AddOriginGC(OriginRedo, 5)
	reg.AddOriginRead(OriginRedo, 3)
	c := reg.Origin(OriginRedo)
	if c.PagesWritten != 10 || c.NANDSlots != 25 || c.GCSlots != 5 || c.PagesRead != 3 {
		t.Fatalf("counters = %+v", c)
	}
	if got := reg.Origin(OriginRedo).WriteAmplification(); got != 2.5 {
		t.Fatalf("WA = %v", got)
	}
}

func TestEnumStrings(t *testing.T) {
	for o := Op(0); o < NumOps; o++ {
		if o.String() == "op?" {
			t.Fatalf("op %d unnamed", o)
		}
	}
	for o := Origin(0); o < NumOrigins; o++ {
		if o.String() == "origin?" {
			t.Fatalf("origin %d unnamed", o)
		}
	}
	for l := Layer(0); l < NumLayers; l++ {
		if l.String() == "layer?" {
			t.Fatalf("layer %d unnamed", l)
		}
	}
}

// WellNested reports whether the request's begin/end calls were properly
// paired so far.
func (r Req) WellNested() bool { return r.tr == nil || !r.tr.bad }

// OpLatency returns the end-to-end latency histogram for op kind o.
func (r *Registry) OpLatency(o Op) *stats.Hist { return &r.op[o] }
