package core

import (
	"bytes"
	"testing"
	"unsafe"

	"durassd/internal/ftl"
	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// TestReleasedFrameHoldsOnlyItsImage: the frame buffers a controller held
// when power failed go, once it is released, to the next controller built,
// and a shorter image staged into one reads back as itself alone, not
// followed by the tail of the image the buffer held before.
func TestReleasedFrameHoldsOnlyItsImage(t *testing.T) {
	for _, ok := spareFrames.Get(); ok; _, ok = spareFrames.Get() {
	}
	a := newRig(t, true, 0)
	ss := a.f.SlotSize()
	a.eng.Go("w", func(p *sim.Proc) {
		for lpn := storage.LPN(1); lpn <= 2; lpn++ {
			if err := a.c.Write(p, iotrace.Req{}, []ftl.SlotWrite{{LPN: lpn, Data: slotData(ss, 0xaa)}}); err != nil {
				t.Errorf("Write: %v", err)
			}
		}
	})
	a.eng.Run()
	released := map[*byte]bool{}
	for _, fr := range a.c.frames {
		released[unsafe.SliceData(fr.data)] = true
	}
	a.c.PowerFail()
	a.eng.Close()
	a.c.Release()

	b := newRig(t, true, 0)
	defer b.eng.Close()
	short := bytes.Repeat([]byte{0x55}, 100)
	buf := make([]byte, ss)
	b.eng.Go("rw", func(p *sim.Proc) {
		if err := b.c.Write(p, iotrace.Req{}, []ftl.SlotWrite{{LPN: 9, Data: short}}); err != nil {
			t.Errorf("Write: %v", err)
		}
		if err := b.c.Read(p, iotrace.Req{}, 9, buf); err != nil {
			t.Errorf("Read: %v", err)
		}
	})
	b.eng.Run()
	if !released[unsafe.SliceData(b.c.frames[9].data)] {
		t.Fatal("the staged image did not take a released frame buffer")
	}
	if b.stats.CacheHits != 1 {
		t.Fatalf("%d cache hits, want the read served from the frame", b.stats.CacheHits)
	}
	if want := append(bytes.Clone(short), make([]byte, ss-len(short))...); !bytes.Equal(buf, want) {
		t.Fatal("read of the shorter image is not its bytes alone")
	}
}
