package nand

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"durassd/internal/iotrace"
	"durassd/internal/sim"
	"durassd/internal/storage"
)

// slotBytes is one 4 KB mapping unit: a one-slot program's image.
const slotBytes = 4 * storage.KB

// zeroExtended is data followed by zeros to a whole page: what a full-page
// program of the same slot, with the rest of its buffer zero, stored.
func zeroExtended(data []byte, pageSize int) []byte {
	page := make([]byte, pageSize)
	copy(page, data)
	return page
}

// readPage reads ppn into a page buffer that starts out as garbage, so a
// read that leaves bytes unwritten shows.
func readPage(t *testing.T, eng *sim.Engine, a *Array, ppn PPN) ([]byte, ReadInfo, error) {
	t.Helper()
	buf := bytes.Repeat([]byte{0xff}, a.Config().PageSize)
	var info ReadInfo
	var err error
	eng.Go("read", func(p *sim.Proc) { info, err = a.ReadPageRetry(p, iotrace.Req{}, ppn, buf, 0) })
	eng.Run()
	return buf, info, err
}

// TestShortProgramStoresOnlyItsSlots: a program of one 4 KB slot into an
// 8 KB page keeps 4 KB, and a read returns the page a full-page program of
// the same slot would have: the slot, then zeros.
func TestShortProgramStoresOnlyItsSlots(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	a := newTestArray(t, eng)
	data := testPage(slotBytes, 21)
	instant(t, a, 3, []SlotTag{{LPN: 9}}, data, false)
	if got := len(a.Data(3)); got != slotBytes {
		t.Fatalf("stored image is %d bytes, want %d", got, slotBytes)
	}
	buf, _, err := readPage(t, eng, a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, zeroExtended(data, a.Config().PageSize)) {
		t.Fatal("read of a one-slot page is not the slot followed by zeros")
	}
}

// TestProgramCopiesCallerBuffer: the array stores a copy, so the caller may
// reuse its buffer as soon as the program returns.
func TestProgramCopiesCallerBuffer(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	a := newTestArray(t, eng)
	data := testPage(slotBytes, 22)
	want := zeroExtended(data, a.Config().PageSize)
	eng.Go("prog", func(p *sim.Proc) {
		if err := a.ProgramPage(p, iotrace.Req{}, 4, []SlotTag{{LPN: 1}}, data, false); err != nil {
			t.Error(err)
		}
		for i := range data {
			data[i] ^= 0x5a
		}
	})
	eng.Run()
	buf, _, err := readPage(t, eng, a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("scribbling the program's buffer changed the stored page")
	}
}

// TestShortPageMediaDamageDecodes: stuck bits on a short page go through
// the real codec — parity of the zero-extended image, computed at the read
// — which returns the programmed bytes and counts the flips it corrected,
// and past the threshold the read fails.
func TestShortPageMediaDamageDecodes(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	a := newTestArray(t, eng)
	data := testPage(slotBytes, 23)
	instant(t, a, 5, []SlotTag{{LPN: 2}}, data, false)
	if !a.InjectBitErrors(5, 3) {
		t.Fatal("injection rejected")
	}
	buf, info, err := readPage(t, eng, a, 5)
	if err != nil {
		t.Fatalf("damaged read within the threshold: %v", err)
	}
	if info.CorrectedBits != 3 {
		t.Errorf("corrected %d bits, want 3", info.CorrectedBits)
	}
	if !bytes.Equal(buf, zeroExtended(data, a.Config().PageSize)) {
		t.Error("decoded page is not the programmed slot followed by zeros")
	}
	if len(a.img) != a.Config().PageSize || len(a.parity) != ECCSize(a.Config().PageSize) {
		t.Errorf("decode scratch holds %d image and %d parity bytes, want a whole page's", len(a.img), len(a.parity))
	}
	if !bytes.Equal(a.Data(5), data) {
		t.Error("decoding damaged the stored image")
	}

	a.InjectBitErrors(5, a.eccBits)
	if _, _, err := readPage(t, eng, a, 5); !errors.Is(err, storage.ErrUncorrectable) {
		t.Fatalf("read past the threshold = %v, want ErrUncorrectable", err)
	}
}

// TestTornShortPage: a dump program torn by the dying supply leaves the
// image a full-page program of the same slot would have left — the slot
// and zeros in the first half, garbage in the second.
func TestTornShortPage(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	a := newTestArray(t, eng)
	size := a.Config().PageSize
	data := testPage(slotBytes, 24)
	a.SetFaults(Faults{DumpTearAfter: 1})
	a.PowerFail()
	if err := a.ProgramPageInstant(6, []SlotTag{{LPN: 3}}, data, true); err != ErrProgramFailed {
		t.Fatalf("torn dump program: err = %v, want ErrProgramFailed", err)
	}
	if got, want := a.Data(6), tornImage(zeroExtended(data, size), size); !bytes.Equal(got, want) {
		t.Fatal("torn short page differs from the torn full page")
	}
	if a.Meta(6).coded {
		t.Fatal("a torn page is coded")
	}
}

// TestRecycledRecordStartsClean: the media state lives in the block's
// record slab, which an erase hands to the next block programmed. Stuck
// bits and the program time must not follow the slab.
func TestRecycledRecordStartsClean(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	a := newTestArray(t, eng)
	ppb := PPN(a.Config().PagesPerBlock)
	data := testPage(a.Config().PageSize, 25)
	eng.Go("age", func(p *sim.Proc) { p.Sleep(time.Millisecond) })
	eng.Run()
	instant(t, a, 0, []SlotTag{{LPN: 1}}, data, false)
	instant(t, a, 1, []SlotTag{{LPN: 3}}, data, false)
	a.InjectBitErrors(0, a.eccBits+1)
	a.InjectBitErrors(1, 2)
	if a.ProgrammedAt(0) != time.Millisecond {
		t.Fatalf("ProgrammedAt = %v, want 1ms", a.ProgrammedAt(0))
	}

	a.eraseNow(0) // block 0's slabs go to the free list
	if got := a.ProgrammedAt(0); got != 0 {
		t.Fatalf("erased page: ProgrammedAt = %v, want 0", got)
	}
	eng.Go("age", func(p *sim.Proc) { p.Sleep(time.Millisecond) })
	eng.Run()
	instant(t, a, ppb, []SlotTag{{LPN: 2}}, data, false) // block 1 takes them
	if len(a.spare) != 0 {
		t.Fatal("block 1 did not take the erased block's slabs")
	}
	if got := a.ProgrammedAt(ppb); got != 2*time.Millisecond {
		t.Errorf("reprogrammed page: ProgrammedAt = %v, want 2ms", got)
	}
	if got := a.ProgrammedAt(ppb + 1); got != 0 {
		t.Errorf("free page in a recycled slab: ProgrammedAt = %v, want 0", got)
	}
	if m := a.blocks[1].oob[1]; m.stuck != 0 || m.at != 0 {
		t.Errorf("free page's record in a recycled slab holds stuck %d, at %v; want none", m.stuck, m.at)
	}
	buf, info, err := readPage(t, eng, a, ppb)
	if err != nil || info.CorrectedBits != 0 {
		t.Fatalf("read of the reprogrammed page = (%d corrected, %v), want clean", info.CorrectedBits, err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("reprogrammed page reads wrong bytes")
	}
}

// TestInterruptedEraseKeepsStuckBits: an erase that power cut interrupted
// never reached the cells, so the damage in them stays with the garbage
// the block now holds.
func TestInterruptedEraseKeepsStuckBits(t *testing.T) {
	eng := sim.New()
	defer eng.Close()
	a := newTestArray(t, eng)
	instant(t, a, 0, []SlotTag{{LPN: 1}}, testPage(a.Config().PageSize, 26), false)
	a.InjectBitErrors(0, a.eccBits+1)
	cutErase(eng, a)
	a.PowerOn()
	if _, _, err := readPage(t, eng, a, 0); !errors.Is(err, storage.ErrUncorrectable) {
		t.Fatalf("read of a stuck page after an interrupted erase = %v, want ErrUncorrectable", err)
	}
	if _, _, err := readPage(t, eng, a, 1); err != nil {
		t.Fatalf("read of a clean page after an interrupted erase: %v", err)
	}
}
