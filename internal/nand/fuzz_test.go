package nand

import (
	"bytes"
	"testing"
)

// FuzzECCRoundTrip drives the codec with arbitrary page images and
// arbitrary corruption patterns. The safety property under fuzz is the one
// the whole media pipeline rests on: ECCDecode must NEVER return ok=true
// for bytes that differ from the encoded original. Failing to correct is
// acceptable (the FTL retries, retires, or reports the typed error);
// miscorrecting silently is not.
func FuzzECCRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0x00}, []byte{0x00, 0x01})
	f.Add(bytes.Repeat([]byte{0xa5}, 512), []byte{0x01, 0x02, 0x03})
	f.Add(bytes.Repeat([]byte{0x3c}, 1024), []byte{0xff, 0xfe, 0x10, 0x20, 0x30, 0x40})
	f.Add(testPage(4096, 42), []byte{0x07, 0x07, 0x07})
	f.Fuzz(func(t *testing.T, page, flips []byte) {
		if len(page) > 16384 {
			page = page[:16384]
		}
		parity := ECCEncodeInto(nil, page)
		img := append([]byte(nil), page...)
		// Interpret the fuzz bytes as bit-flip positions (two bytes each)
		// across the page, plus a final parity-corruption toggle.
		for i := 0; i+1 < len(flips) && len(img) > 0; i += 2 {
			pos := (int(flips[i])<<8 | int(flips[i+1])) % (len(img) * 8)
			img[pos>>3] ^= 1 << (pos & 7)
		}
		if len(flips)%2 == 1 && len(parity) > 0 {
			parity[int(flips[len(flips)-1])%len(parity)] ^= 0x40
		}
		n, ok := ECCDecode(img, parity)
		if !ok {
			return // detected damage: safe outcome by definition
		}
		if !bytes.Equal(img, page) {
			t.Fatalf("ECCDecode returned wrong data as correct (corrected=%d, %d flip bytes)", n, len(flips))
		}
	})
}
