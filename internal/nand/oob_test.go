package nand

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// TestOOBRecordStates pins what Meta reports for a page in every state the
// array can leave it in. Records live in per-block slabs that erases keep,
// so a page must never show an earlier program's tags, ECC coding, flags or
// media state.
func TestOOBRecordStates(t *testing.T) {
	const ppn = PPN(1) // block 0
	tags := func(lpns ...storage.LPN) []SlotTag {
		out := make([]SlotTag, len(lpns))
		for i, l := range lpns {
			out[i] = SlotTag{LPN: l}
		}
		return out
	}
	type want struct {
		lpns  []storage.LPN // nil: Meta is nil
		torn  bool
		dump  bool
		coded bool
	}
	cases := []struct {
		name string
		run  func(t *testing.T, eng *sim.Engine, a *Array, data []byte)
		want want
	}{
		{"never programmed", func(*testing.T, *sim.Engine, *Array, []byte) {}, want{}},
		{"programmed with data", func(t *testing.T, _ *sim.Engine, a *Array, data []byte) {
			instant(t, a, ppn, tags(7, 8), data, false)
		}, want{lpns: []storage.LPN{7, 8}, coded: true}},
		{"programmed timing-only", func(t *testing.T, _ *sim.Engine, a *Array, _ []byte) {
			instant(t, a, ppn, tags(7), nil, false)
		}, want{lpns: []storage.LPN{7}}},
		{"erased", func(t *testing.T, _ *sim.Engine, a *Array, data []byte) {
			instant(t, a, ppn, tags(7, 8), data, true)
			a.eraseNow(0)
		}, want{}},
		{"reprogrammed after erase", func(t *testing.T, _ *sim.Engine, a *Array, data []byte) {
			instant(t, a, ppn, tags(7, 8), data, true)
			a.eraseNow(0)
			instant(t, a, ppn, tags(9), nil, false)
		}, want{lpns: []storage.LPN{9}}},
		{"more tags than its window", func(t *testing.T, _ *sim.Engine, a *Array, _ []byte) {
			instant(t, a, ppn, tags(1, 2, 3), nil, false)
			instant(t, a, ppn+1, tags(4, 5), nil, false) // the next page's window
		}, want{lpns: []storage.LPN{1, 2, 3}}},
		{"torn mid-program", func(t *testing.T, eng *sim.Engine, a *Array, data []byte) {
			cutProgram(eng, a, ppn, tags(7, 8), data)
		}, want{lpns: []storage.LPN{7, 8}, torn: true}},
		{"torn mid-program without tags", func(t *testing.T, eng *sim.Engine, a *Array, _ []byte) {
			cutProgram(eng, a, ppn, nil, nil)
		}, want{lpns: []storage.LPN{InvalidLPN}, torn: true}},
		{"torn mid-program, rebooted", func(t *testing.T, eng *sim.Engine, a *Array, data []byte) {
			cutProgram(eng, a, ppn, tags(7, 8), data)
			a.PowerOn()
		}, want{lpns: []storage.LPN{7, 8}, torn: true}},
		{"torn over an erased page", func(t *testing.T, eng *sim.Engine, a *Array, data []byte) {
			instant(t, a, ppn, tags(3), data, true)
			a.eraseNow(0)
			cutProgram(eng, a, ppn, tags(7), nil)
		}, want{lpns: []storage.LPN{7}, torn: true}},
		{"dump program", func(t *testing.T, _ *sim.Engine, a *Array, data []byte) {
			a.PowerFail()
			instant(t, a, ppn, tags(5), data, true)
		}, want{lpns: []storage.LPN{5}, dump: true, coded: true}},
		{"dump tear", func(t *testing.T, _ *sim.Engine, a *Array, data []byte) {
			a.SetFaults(Faults{DumpTearAfter: 1})
			a.PowerFail()
			if err := a.ProgramPageInstant(ppn, tags(5), data, true); err != ErrProgramFailed {
				t.Fatalf("torn dump program: err = %v, want ErrProgramFailed", err)
			}
		}, want{lpns: []storage.LPN{5}, torn: true, dump: true}},
		{"dump tear, rebooted and erased", func(t *testing.T, _ *sim.Engine, a *Array, data []byte) {
			a.SetFaults(Faults{DumpTearAfter: 1})
			a.PowerFail()
			_ = a.ProgramPageInstant(ppn, tags(5), data, true)
			a.PowerOn()
			a.eraseNow(0)
		}, want{}},
		{"interrupted erase", func(t *testing.T, eng *sim.Engine, a *Array, data []byte) {
			instant(t, a, ppn, tags(7, 8), data, true)
			cutErase(eng, a)
		}, want{lpns: []storage.LPN{InvalidLPN}, torn: true}},
		{"interrupted erase, rebooted", func(t *testing.T, eng *sim.Engine, a *Array, _ []byte) {
			cutErase(eng, a)
			a.PowerOn()
		}, want{lpns: []storage.LPN{InvalidLPN}, torn: true}},
		{"interrupted erase, rebooted and erased", func(t *testing.T, eng *sim.Engine, a *Array, data []byte) {
			instant(t, a, ppn, tags(7), data, false)
			cutErase(eng, a)
			a.PowerOn()
			a.eraseNow(0)
		}, want{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.New()
			defer eng.Close()
			a := newTestArray(t, eng)
			c.run(t, eng, a, bytes.Repeat([]byte{0xa5}, a.Config().PageSize))
			m := a.Meta(ppn)
			if c.want.lpns == nil {
				if m != nil || a.State(ppn) != PageFree {
					t.Fatalf("Meta = %+v, state %v; want nil, free", m, a.State(ppn))
				}
				return
			}
			if m == nil {
				t.Fatal("Meta = nil, want a record")
			}
			var lpns []storage.LPN
			for _, tag := range m.Slots {
				lpns = append(lpns, tag.LPN)
				if tag.Torn != c.want.torn {
					t.Errorf("tag %+v: torn = %v, want %v", tag, tag.Torn, c.want.torn)
				}
			}
			if !slices.Equal(lpns, c.want.lpns) {
				t.Errorf("tags hold LPNs %v, want %v", lpns, c.want.lpns)
			}
			if m.Dump != c.want.dump || m.coded != c.want.coded || m.Seq == 0 {
				t.Errorf("record %+v: want dump %v, coded %v, a sequence number", m, c.want.dump, c.want.coded)
			}
		})
	}
}

func instant(t *testing.T, a *Array, ppn PPN, slots []SlotTag, data []byte, dump bool) {
	t.Helper()
	if err := a.ProgramPageInstant(ppn, slots, data, dump); err != nil {
		t.Fatalf("program %d: %v", ppn, err)
	}
}

// cutProgram cuts power in the middle of ppn's cell program.
func cutProgram(eng *sim.Engine, a *Array, ppn PPN, slots []SlotTag, data []byte) {
	eng.Go("prog", func(p *sim.Proc) { _ = a.ProgramPage(p, iotrace.Req{}, ppn, slots, data, false) })
	eng.Schedule(200*time.Microsecond, a.PowerFail)
	eng.Run()
}

// cutErase cuts power in the middle of block 0's erase with the
// interrupted-erase fault armed.
func cutErase(eng *sim.Engine, a *Array) {
	a.SetFaults(Faults{InterruptedErase: true})
	eng.Go("erase", func(p *sim.Proc) { _ = a.EraseBlock(p, iotrace.Req{}, 0) })
	eng.Schedule(a.Config().EraseLatency/2, a.PowerFail)
	eng.Run()
}

// TestProgramEraseCycleDoesNotAllocate: after a block's first program its
// records, tag windows, parity slab and the recycled data buffers serve
// every later program→erase cycle, timed or instant, with or without data.
func TestProgramEraseCycleDoesNotAllocate(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	a := newTestArray(t, eng)
	ppb := a.Config().PagesPerBlock
	data := bytes.Repeat([]byte{0x3c}, a.Config().PageSize)
	slots := []SlotTag{{LPN: 1}, {LPN: 2}}
	round := sim.NewQueue(eng)
	eng.Go("cycle", func(p *sim.Proc) {
		for {
			round.Wait(p)
			for i := 0; i < ppb; i++ {
				d := data
				if i%2 == 1 {
					d = nil
				}
				if err := a.ProgramPage(p, iotrace.Req{}, PPN(i), slots, d, false); err != nil {
					t.Error(err)
				}
				if err := a.ProgramPageInstant(PPN(ppb+i), slots, d, true); err != nil {
					t.Error(err)
				}
			}
			if err := a.EraseBlock(p, iotrace.Req{}, 0); err != nil {
				t.Error(err)
			}
			a.eraseNow(1)
		}
	})
	cycle := func() {
		round.WakeOne()
		eng.Run()
	}
	cycle() // first programs: each block's slabs, the data buffers
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("a warm cycle of %d programs and 2 erases allocates %v times, want 0", 2*ppb, allocs)
	}
}
