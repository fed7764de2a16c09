package nand

import (
	"bytes"
	"testing"
	"unsafe"

	"durassd/internal/sim"
	"durassd/internal/storage"
)

// drain empties the process-wide spares, so that what a test's second array
// takes can only be what its first array released.
func drain(a *Array) {
	for _, l := range a.sharedImages {
		for _, ok := l.Get(); ok; _, ok = l.Get() {
		}
	}
	for _, ok := a.sharedSlabs.Get(); ok; _, ok = a.sharedSlabs.Get() {
	}
}

// cleanRecord reports whether m is the record of a page never programmed.
func cleanRecord(m OOB) bool {
	return m.Slots == nil && m.Seq == 0 && !m.Dump && !m.coded && m.stuck == 0 && m.at == 0
}

// TestReleasedMemoryStartsClean: a released array's slabs and images go to
// the next array built, and nothing of the first array shows through them —
// no page state, no record (tags, sequence number, stuck bits, program
// time), no stale image tail.
func TestReleasedMemoryStartsClean(t *testing.T) {
	engA := sim.New()
	a := newTestArray(t, engA)
	drain(a)
	ppb := PPN(a.Config().PagesPerBlock)
	full := bytes.Repeat([]byte{0xaa}, slotBytes)
	for ppn := PPN(0); ppn < 2*ppb; ppn++ {
		instant(t, a, ppn, []SlotTag{{LPN: 100 + storage.LPN(ppn)}}, full, ppn%2 == 0)
	}
	cutProgram(engA, a, 2*ppb, []SlotTag{{LPN: 7}}, full) // one torn page
	a.PowerOn()
	a.InjectBitErrors(1, a.eccBits+1)
	a.InjectBitErrors(ppb+1, 3)
	slabs := map[*OOB]bool{}
	images := map[*byte]bool{}
	for block := 0; block < 3; block++ {
		slabs[&a.blocks[block].oob[0]] = true
		for _, d := range a.blocks[block].data {
			if d != nil {
				images[unsafe.SliceData(d)] = true
			}
		}
	}
	engA.Close()
	a.Release()

	engB := sim.New()
	defer engB.Close()
	b := newTestArray(t, engB)
	for ppn := PPN(0); ppn < PPN(b.Config().Pages()); ppn++ {
		if b.State(ppn) != PageFree || b.Meta(ppn) != nil {
			t.Fatalf("page %d of a new array: state %d, meta %+v; want free, none", ppn, b.State(ppn), b.Meta(ppn))
		}
	}

	short := bytes.Repeat([]byte{0x55}, 100)
	instant(t, b, 1, []SlotTag{{LPN: 9}}, short, false)
	if !slabs[&b.blocks[0].oob[0]] {
		t.Error("block 0 did not take a released slab")
	}
	if !images[unsafe.SliceData(b.Data(1))] {
		t.Error("the program did not take a released image")
	}
	for i, m := range b.blocks[0].oob {
		if i != 1 && !cleanRecord(m) {
			t.Errorf("free page %d's record in a released slab holds %+v", i, m)
		}
	}
	m := b.Meta(1)
	if m.Seq != 1 || m.stuck != 0 || len(m.Slots) != 1 || m.Slots[0] != (SlotTag{LPN: 9}) {
		t.Errorf("reprogrammed page's record = %+v; want seq 1, one tag for LPN 9, no stuck bits", *m)
	}
	if got := b.Data(1); !bytes.Equal(got, short) {
		t.Fatalf("stored image is %d bytes, want the program's %d", len(got), len(short))
	}
	buf, info, err := readPage(t, engB, b, 1)
	if err != nil || info.CorrectedBits != 0 {
		t.Fatalf("read = (%d corrected, %v), want clean", info.CorrectedBits, err)
	}
	if !bytes.Equal(buf, zeroExtended(short, b.Config().PageSize)) {
		t.Fatal("read of the short image is not its bytes followed by zeros")
	}
}
