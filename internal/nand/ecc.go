package nand

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
)

// ECC codec: per-codeword SEC-DED Hamming parity with a whole-page CRC-32C
// backstop over the image of every page programmed with real bytes. The
// array does not store it: a read that finds media damage encodes the page
// image as programmed, which yields the parity the program would have
// stored, because stored images never change.
//
// Each page is split into 512-byte codewords. Per codeword the encoder
// stores a 13-bit syndrome — the XOR of (bit position | synMark) over every
// set bit — which corrects any single flipped bit and detects any even
// number of flips. An odd number of flips ≥ 3 can alias a single-bit
// correction (miscorrection); the page-level CRC catches that case, so the
// decoder never returns wrong data as correct (the fuzz target
// FuzzECCRoundTrip asserts exactly this property).

const (
	// eccCodewordBytes is the SEC-DED codeword granularity. Real devices
	// protect 512-byte or 1-KB chunks; one syndrome per chunk bounds the
	// correction capability per page to the number of codewords.
	eccCodewordBytes = 512
	// synMark is OR-ed into every position term so the syndrome of a single
	// flipped bit is nonzero and distinguishable from an even-flip detect.
	// It must exceed the largest bit position in a codeword (4095).
	synMark = 0x1000
)

var eccCRC = crc32.MakeTable(crc32.Castagnoli)

// synLowMask[i] selects the bits of a 64-bit word whose index has bit i set.
var synLowMask = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// eccCodewords returns the number of codewords covering a page of n bytes.
func eccCodewords(n int) int {
	return (n + eccCodewordBytes - 1) / eccCodewordBytes
}

// ECCSize returns the parity blob size for a page of n bytes: two syndrome
// bytes per codeword plus the 4-byte page CRC.
func ECCSize(n int) int { return 2*eccCodewords(n) + 4 }

// cwSyndrome computes the codeword syndrome: the XOR of (p | synMark) over
// every set bit position p. A single flipped bit at p changes the syndrome
// by exactly (p | synMark).
//
// The codeword is read as little-endian 64-bit words, so bit j of word k is
// position 64k+j. Position bits 0–5 are then the XOR of j over every set
// bit, which XOR-ing the words together preserves bit by bit: each is the
// parity of the folded word under one mask. Position bits 6–11 are the XOR
// of k over the words with an odd number of set bits, and the mark is the
// parity of the whole fold.
func cwSyndrome(cw []byte) uint16 {
	var fold uint64
	var high uint
	words := len(cw) / 8
	for k := 0; k < words; k++ {
		w := binary.LittleEndian.Uint64(cw[8*k:])
		fold ^= w
		high ^= uint(k) & -(uint(bits.OnesCount64(w)) & 1)
	}
	if tail := cw[8*words:]; len(tail) > 0 {
		// Zero padding adds no set bit: the tail is one more word.
		var last [8]byte
		copy(last[:], tail)
		w := binary.LittleEndian.Uint64(last[:])
		fold ^= w
		high ^= uint(words) & -(uint(bits.OnesCount64(w)) & 1)
	}
	syn := uint16(high << 6)
	for i, mask := range synLowMask {
		syn |= uint16(bits.OnesCount64(fold&mask)&1) << i
	}
	if bits.OnesCount64(fold)&1 != 0 {
		syn |= synMark
	}
	return syn
}

// ECCEncodeInto appends the parity blob for a page image to dst (which is
// truncated to zero length first), reusing dst's capacity when possible.
func ECCEncodeInto(dst, page []byte) []byte {
	n := eccCodewords(len(page))
	size := ECCSize(len(page))
	if cap(dst) >= size {
		dst = dst[:size]
	} else {
		dst = make([]byte, size) //simlint:allow hotalloc parity buffer capacity miss; steady state reuses the caller's slice
	}
	out := dst
	for c := 0; c < n; c++ {
		end := (c + 1) * eccCodewordBytes
		if end > len(page) {
			end = len(page)
		}
		binary.LittleEndian.PutUint16(out[2*c:], cwSyndrome(page[c*eccCodewordBytes:end]))
	}
	binary.LittleEndian.PutUint32(out[2*n:], crc32.Checksum(page, eccCRC))
	return out
}

// ECCDecode verifies page against the parity blob, correcting single-bit
// errors per codeword in place. It returns the number of bits corrected and
// whether the page decoded cleanly; on ok=false the page contents are
// undefined and must not be used.
func ECCDecode(page, parity []byte) (corrected int, ok bool) {
	n := eccCodewords(len(page))
	if len(parity) != ECCSize(len(page)) {
		return 0, false
	}
	for c := 0; c < n; c++ {
		end := (c + 1) * eccCodewordBytes
		if end > len(page) {
			end = len(page)
		}
		cw := page[c*eccCodewordBytes : end]
		d := binary.LittleEndian.Uint16(parity[2*c:]) ^ cwSyndrome(cw)
		switch {
		case d == 0:
			// Codeword clean.
		case d&synMark != 0:
			pos := int(d &^ synMark)
			if pos >= len(cw)*8 {
				return 0, false // syndrome points outside the codeword: multi-bit damage
			}
			cw[pos>>3] ^= 1 << (pos & 7)
			corrected++
		default:
			return 0, false // even number of flips: detected, uncorrectable
		}
	}
	if crc32.Checksum(page, eccCRC) != binary.LittleEndian.Uint32(parity[2*n:]) {
		return 0, false // miscorrection (≥3 aliased flips): CRC backstop
	}
	return corrected, true
}
