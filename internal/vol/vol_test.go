package vol

import (
	"bytes"
	"testing"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
)

func newMembers(t *testing.T, eng *sim.Engine, prof func(int) ssd.Profile, n int) []storage.Device {
	t.Helper()
	members := make([]storage.Device, n)
	for i := range members {
		d, err := ssd.New(eng, prof(16))
		if err != nil {
			t.Fatal(err)
		}
		members[i] = d
	}
	return members
}

func run(t *testing.T, eng *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	eng.Go("test", fn)
	eng.Run()
}

func TestStripedMapping(t *testing.T) {
	eng := sim.New()
	v, err := NewStriped(eng, newMembers(t, eng, ssd.DuraSSD, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Pages() % (4 * 4); got != 0 {
		t.Fatalf("capacity %d not a whole number of stripes", v.Pages())
	}
	// One chunk, fully inside member 1's first chunk.
	segs := v.mapRange(4, 4)
	if len(segs) != 1 || segs[0].member != 1 || segs[0].lpn != 0 || segs[0].n != 4 {
		t.Fatalf("chunk-aligned map = %+v", segs)
	}
	// Crossing three chunk boundaries: pages 2..13 touch members 0,1,2,3.
	segs = v.mapRange(2, 12)
	want := []segment{
		{member: 0, lpn: 2, n: 2, off: 0},
		{member: 1, lpn: 0, n: 4, off: 2},
		{member: 2, lpn: 0, n: 4, off: 6},
		{member: 3, lpn: 0, n: 2, off: 10},
	}
	if len(segs) != len(want) {
		t.Fatalf("map(2,12) = %+v", segs)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Errorf("seg %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
	// Second stripe row lands at member-local chunk 1.
	segs = v.mapRange(16, 1)
	if len(segs) != 1 || segs[0].member != 0 || segs[0].lpn != 4 {
		t.Fatalf("second-row map = %+v", segs)
	}
}

func TestStripedRoundTrip(t *testing.T) {
	eng := sim.New()
	v, err := NewStriped(eng, newMembers(t, eng, ssd.DuraSSD, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	const lpn, n = 2, 12 // spans all four members
	data := make([]byte, n*v.PageSize())
	for i := range data {
		data[i] = byte(i % 251)
	}
	run(t, eng, func(p *sim.Proc) {
		if err := v.Write(p, iotrace.Req{}, lpn, n, data); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		buf := make([]byte, n*v.PageSize())
		if err := v.Read(p, iotrace.Req{}, lpn, n, buf); err != nil {
			t.Errorf("Read: %v", err)
			return
		}
		if !bytes.Equal(buf, data) {
			t.Error("striped round trip mismatch")
		}
	})
	for i, m := range v.Members() {
		if m.Stats().PagesWritten == 0 {
			t.Errorf("member %d received no pages — stripe not fanning out", i)
		}
	}
	if v.Stats().WriteCommands != 1 || v.Stats().PagesWritten != n {
		t.Errorf("volume stats = %+v", v.Stats())
	}
}

// TestStripedParallelism: a stripe-spanning write should complete in far
// less time than the same pages written through a single member, because
// the members program concurrently.
func TestStripedParallelism(t *testing.T) {
	const pages = 64

	single := func() time.Duration {
		eng := sim.New()
		d := newMembers(t, eng, ssd.DuraSSD, 1)[0]
		var done time.Duration
		run(t, eng, func(p *sim.Proc) {
			if err := d.Write(p, iotrace.Req{}, 0, pages, nil); err != nil {
				t.Errorf("single write: %v", err)
			}
			done = p.Now()
		})
		return done
	}()

	striped := func() time.Duration {
		eng := sim.New()
		v, err := NewStriped(eng, newMembers(t, eng, ssd.DuraSSD, 4), 4)
		if err != nil {
			t.Fatal(err)
		}
		var done time.Duration
		run(t, eng, func(p *sim.Proc) {
			if err := v.Write(p, iotrace.Req{}, 0, pages, nil); err != nil {
				t.Errorf("striped write: %v", err)
			}
			done = p.Now()
		})
		return done
	}()

	if striped >= single {
		t.Fatalf("4-way stripe (%v) not faster than single member (%v)", striped, single)
	}
}

func TestMirrorFanoutAndRoundRobin(t *testing.T) {
	eng := sim.New()
	v, err := NewMirror(eng, newMembers(t, eng, ssd.DuraSSD, 2))
	if err != nil {
		t.Fatal(err)
	}
	run(t, eng, func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if err := v.Write(p, iotrace.Req{}, storage.LPN(i), 1, nil); err != nil {
				t.Errorf("Write: %v", err)
			}
		}
		for i := 0; i < 4; i++ {
			if err := v.Read(p, iotrace.Req{}, storage.LPN(i), 1, nil); err != nil {
				t.Errorf("Read: %v", err)
			}
		}
	})
	for i, m := range v.Members() {
		if got := m.Stats().PagesWritten; got != 4 {
			t.Errorf("member %d wrote %d pages, want 4 (mirror writes everywhere)", i, got)
		}
		if got := m.Stats().ReadCommands; got != 2 {
			t.Errorf("member %d served %d reads, want 2 (round-robin)", i, got)
		}
	}
}

func TestMirrorCrashRepair(t *testing.T) {
	eng := sim.New()
	v, err := NewMirror(eng, newMembers(t, eng, ssd.DuraSSD, 2))
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0xa5}, v.PageSize())
	run(t, eng, func(p *sim.Proc) {
		if err := v.Write(p, iotrace.Req{}, 7, 1, page); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		v.PowerFail()
		if err := v.Write(p, iotrace.Req{}, 7, 1, page); err != storage.ErrOffline {
			t.Errorf("offline Write = %v, want ErrOffline", err)
		}
		if err := v.Reboot(p); err != nil {
			t.Errorf("Reboot: %v", err)
			return
		}
		if !v.degraded {
			t.Error("mirror not degraded after power cycle")
		}
		// Degraded read: served from the primary, repaired onto the
		// secondary. DuraSSD members recover acked writes, so the data
		// must come back intact.
		buf := make([]byte, v.PageSize())
		if err := v.Read(p, iotrace.Req{}, 7, 1, buf); err != nil {
			t.Errorf("degraded Read: %v", err)
			return
		}
		if !bytes.Equal(buf, page) {
			t.Error("acked write lost across power cycle on DuraSSD mirror")
		}
		if !v.rangeRepaired(7, 1) {
			t.Error("read did not repair the range")
		}
		// The secondary now holds the primary's image.
		sec := make([]byte, v.PageSize())
		if err := v.Members()[1].Read(p, iotrace.Req{}, 7, 1, sec); err != nil {
			t.Errorf("secondary Read: %v", err)
			return
		}
		if !bytes.Equal(sec, page) {
			t.Error("read-repair did not converge the secondary")
		}
		// A fresh write also repairs its range.
		if err := v.Write(p, iotrace.Req{}, 9, 1, page); err != nil {
			t.Errorf("post-crash Write: %v", err)
			return
		}
		if !v.rangeRepaired(9, 1) {
			t.Error("write did not mark its range repaired")
		}
	})
}

// TestMirrorReadRepairRaces: after a power cycle, two operations on one
// page run side by side while every other page is already reconciled, so the
// first to finish takes the mirror out of degraded mode. A read-repair
// copies the primary's image onto the secondary; it must not land the
// pre-write image over a concurrent write, or the clean mirror would later
// serve the stale copy round-robin. A second repair of the same page must
// not mark a mirror that already left degraded mode.
func TestMirrorReadRepairRaces(t *testing.T) {
	const lpn, before, written = 7, 0x11, 0x22
	for _, tc := range []struct {
		name   string
		writes []bool // per operation: write the new image, or read
		want   byte   // every member's image of lpn afterwards, repeated
	}{
		{"ReadThenWrite", []bool{false, true}, written},
		{"TwoReads", []bool{false, false}, before},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			defer eng.Close()
			v, err := NewMirror(eng, newMembers(t, eng, ssd.DuraSSD, 2))
			if err != nil {
				t.Fatal(err)
			}
			image := func(b byte) []byte { return bytes.Repeat([]byte{b}, v.PageSize()) }
			run(t, eng, func(p *sim.Proc) {
				if err := v.Write(p, iotrace.Req{}, lpn, 1, image(before)); err != nil {
					t.Errorf("Write: %v", err)
					return
				}
				v.PowerFail()
				if err := v.Reboot(p); err != nil {
					t.Errorf("Reboot: %v", err)
				}
			})
			for i := storage.LPN(0); i < storage.LPN(v.Pages()); i++ {
				if i != lpn {
					v.repaired[i] = true
				}
			}
			for _, write := range tc.writes {
				eng.Go("op", func(p *sim.Proc) {
					var err error
					if write {
						err = v.Write(p, iotrace.Req{}, lpn, 1, image(written))
					} else {
						err = v.Read(p, iotrace.Req{}, lpn, 1, make([]byte, v.PageSize()))
					}
					if err != nil {
						t.Errorf("degraded op (write %t): %v", write, err)
					}
				})
			}
			eng.Run()
			if v.degraded {
				t.Error("mirror still degraded after every page was repaired")
			}
			run(t, eng, func(p *sim.Proc) {
				for i, m := range v.Members() {
					buf := make([]byte, v.PageSize())
					if err := m.Read(p, iotrace.Req{}, lpn, 1, buf); err != nil {
						t.Errorf("member %d Read: %v", i, err)
					} else if !bytes.Equal(buf, image(tc.want)) {
						t.Errorf("member %d holds %#x..., want %#x...", i, buf[0], tc.want)
					}
				}
			})
		})
	}
}

func TestVolumeBounds(t *testing.T) {
	eng := sim.New()
	v, err := NewStriped(eng, newMembers(t, eng, ssd.DuraSSD, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	run(t, eng, func(p *sim.Proc) {
		cases := []struct {
			lpn storage.LPN
			n   int
		}{
			{storage.LPN(v.Pages()), 1},     // starts past the end
			{storage.LPN(v.Pages() - 1), 2}, // runs past the end
			{0, 0},                          // zero length
			{storage.LPN(1) << 63, 1},       // overflow address
		}
		for _, c := range cases {
			if err := v.Write(p, iotrace.Req{}, c.lpn, c.n, nil); err != storage.ErrOutOfRange {
				t.Errorf("Write(%d,%d) = %v, want ErrOutOfRange", c.lpn, c.n, err)
			}
			if err := v.Read(p, iotrace.Req{}, c.lpn, c.n, nil); err != storage.ErrOutOfRange {
				t.Errorf("Read(%d,%d) = %v, want ErrOutOfRange", c.lpn, c.n, err)
			}
		}
		// No member saw any traffic from the rejected commands.
		for i, m := range v.Members() {
			if m.Stats().WriteCommands+m.Stats().ReadCommands != 0 {
				t.Errorf("member %d saw traffic from out-of-range commands", i)
			}
		}
	})
}

func TestVolumePreload(t *testing.T) {
	eng := sim.New()
	v, err := NewStriped(eng, newMembers(t, eng, ssd.DuraSSD, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8*v.PageSize())
	for i := range data {
		data[i] = byte(i)
	}
	if err := v.PreloadPages(0, 8, data); err != nil {
		t.Fatal(err)
	}
	run(t, eng, func(p *sim.Proc) {
		buf := make([]byte, 8*v.PageSize())
		if err := v.Read(p, iotrace.Req{}, 0, 8, buf); err != nil {
			t.Errorf("Read: %v", err)
			return
		}
		if !bytes.Equal(buf, data) {
			t.Error("preloaded data mismatch")
		}
	})
}

// TestMirrorMediaReadRepair is the normal-operation (non-degraded) repair
// regression: a round-robin read that lands on a replica with unreadable
// media must transparently serve the bytes from the healthy copy, rewrite
// the damaged replica, and count one read-repair — the host never sees the
// media error.
func TestMirrorMediaReadRepair(t *testing.T) {
	eng := sim.New()
	v, err := NewMirror(eng, newMembers(t, eng, ssd.DuraSSD, 2))
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0x3c}, v.PageSize())
	run(t, eng, func(p *sim.Proc) {
		if err := v.Write(p, iotrace.Req{}, 5, 1, page); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := v.Flush(p, iotrace.Req{}); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		// Damage the secondary's only copy beyond ECC reach.
		if !v.InjectReadErrors(5, 1000) {
			t.Fatal("injection not accepted")
		}
		// First read round-robins to the healthy primary; the second lands
		// on the damaged secondary and must trigger the repair path.
		buf := make([]byte, v.PageSize())
		for i := 0; i < 2; i++ {
			for j := range buf {
				buf[j] = 0xff
			}
			if err := v.Read(p, iotrace.Req{}, 5, 1, buf); err != nil {
				t.Fatalf("Read %d: %v", i, err)
			}
			if !bytes.Equal(buf, page) {
				t.Fatalf("Read %d returned wrong bytes", i)
			}
		}
		if got := v.Stats().ReadRepairs; got != 1 {
			t.Errorf("ReadRepairs = %d, want 1", got)
		}
		// The rewrite remapped the secondary away from the failing flash:
		// reading it directly must now succeed with the original bytes.
		sec := make([]byte, v.PageSize())
		if err := v.Members()[1].Read(p, iotrace.Req{}, 5, 1, sec); err != nil {
			t.Fatalf("secondary Read after repair: %v", err)
		}
		if !bytes.Equal(sec, page) {
			t.Error("secondary not healed by read-repair")
		}
	})
}

// TestMirrorMediaRepairHoldsItsRange: on a clean mirror a read that finds
// member 0's copy of a page unreadable serves it from member 1 and rewrites
// member 0 with that image. A write of the page started at any instant
// during the repair must not be undone by it: every member ends with the
// written image, not the one the repair read before the write landed.
func TestMirrorMediaRepairHoldsItsRange(t *testing.T) {
	const lpn, before, written = 7, 0x11, 0x22
	for delay := time.Duration(0); delay <= 2*time.Millisecond; delay += 10 * time.Microsecond {
		eng := sim.New()
		v, err := NewMirror(eng, newMembers(t, eng, ssd.DuraSSD, 2))
		if err != nil {
			t.Fatal(err)
		}
		image := func(b byte) []byte { return bytes.Repeat([]byte{b}, v.PageSize()) }
		run(t, eng, func(p *sim.Proc) {
			if err := v.Write(p, iotrace.Req{}, lpn, 1, image(before)); err != nil {
				t.Errorf("Write: %v", err)
			}
			if err := v.Flush(p, iotrace.Req{}); err != nil {
				t.Errorf("Flush: %v", err)
			}
		})
		if !v.Members()[0].(storage.MediaFaulter).InjectReadErrors(lpn, 1000) {
			t.Fatal("member 0 refused the damage")
		}
		eng.Go("read", func(p *sim.Proc) {
			if err := v.Read(p, iotrace.Req{}, lpn, 1, make([]byte, v.PageSize())); err != nil {
				t.Errorf("Read: %v", err)
			}
		})
		eng.Go("write", func(p *sim.Proc) {
			p.Sleep(delay)
			if err := v.Write(p, iotrace.Req{}, lpn, 1, image(written)); err != nil {
				t.Errorf("Write: %v", err)
			}
		})
		eng.Run()
		if v.front.Stats().ReadRepairs != 1 {
			t.Fatalf("write after %v: %d read-repairs, want the read to repair member 0", delay, v.front.Stats().ReadRepairs)
		}
		run(t, eng, func(p *sim.Proc) {
			for i, m := range v.Members() {
				buf := make([]byte, v.PageSize())
				if err := m.Read(p, iotrace.Req{}, lpn, 1, buf); err != nil {
					t.Errorf("write after %v: member %d Read: %v", delay, i, err)
				} else if !bytes.Equal(buf, image(written)) {
					t.Errorf("write after %v: member %d holds %#x..., want %#x...", delay, i, buf[0], written)
				}
			}
		})
		eng.Close()
	}
}
