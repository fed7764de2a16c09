package nand

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

func testPage(size int, seed int64) []byte {
	page := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(page)
	return page
}

func TestECCRoundTripClean(t *testing.T) {
	for _, size := range []int{512, 4096, 8192, 1000} {
		page := testPage(size, 1)
		parity := ECCEncodeInto(nil, page)
		if got := len(parity); got != ECCSize(size) {
			t.Fatalf("size %d: parity length %d, want %d", size, got, ECCSize(size))
		}
		img := append([]byte(nil), page...)
		n, ok := ECCDecode(img, parity)
		if !ok || n != 0 {
			t.Fatalf("size %d: clean decode = (%d, %v), want (0, true)", size, n, ok)
		}
		if !bytes.Equal(img, page) {
			t.Fatalf("size %d: clean decode mutated the page", size)
		}
	}
}

func TestECCCorrectsOneBitPerCodeword(t *testing.T) {
	page := testPage(8192, 2)
	parity := ECCEncodeInto(nil, page)
	img := append([]byte(nil), page...)
	cws := eccCodewords(len(page))
	for c := 0; c < cws; c++ {
		pos := c*eccCodewordBytes*8 + (c*37+5)%(eccCodewordBytes*8)
		img[pos>>3] ^= 1 << (pos & 7)
	}
	n, ok := ECCDecode(img, parity)
	if !ok || n != cws {
		t.Fatalf("decode = (%d, %v), want (%d, true)", n, ok, cws)
	}
	if !bytes.Equal(img, page) {
		t.Fatal("correction did not restore the original page")
	}
}

func TestECCDetectsDoubleFlip(t *testing.T) {
	page := testPage(4096, 3)
	parity := ECCEncodeInto(nil, page)
	img := append([]byte(nil), page...)
	img[10] ^= 1 << 3
	img[200] ^= 1 << 6 // same codeword: even flip count, detected not corrected
	if _, ok := ECCDecode(img, parity); ok {
		t.Fatal("double flip in one codeword decoded as ok")
	}
}

func TestECCCRCBackstopsOddMultiFlip(t *testing.T) {
	// Three flips in one codeword can alias a single-bit correction; the
	// page CRC must reject the miscorrected image. Whatever the syndrome
	// path decides, ok=true with wrong bytes is the one forbidden outcome.
	page := testPage(4096, 4)
	parity := ECCEncodeInto(nil, page)
	for trial := int64(0); trial < 64; trial++ {
		img := append([]byte(nil), page...)
		rng := rand.New(rand.NewSource(trial))
		for k := 0; k < 3; k++ {
			pos := rng.Intn(eccCodewordBytes * 8)
			img[pos>>3] ^= 1 << (pos & 7)
		}
		if _, ok := ECCDecode(img, parity); ok && !bytes.Equal(img, page) {
			t.Fatalf("trial %d: triple flip returned wrong data as correct", trial)
		}
	}
}

func TestECCRejectsParityLengthMismatch(t *testing.T) {
	page := testPage(512, 5)
	if _, ok := ECCDecode(page, make([]byte, 3)); ok {
		t.Fatal("short parity accepted")
	}
}

// bitXOR[b] is the XOR of the indices (0..7) of the set bits of b; bitPar[b]
// is the parity of its popcount.
var bitXOR, bitPar [256]uint16

func init() {
	for b := 1; b < 256; b++ {
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				bitXOR[b] ^= uint16(i)
				bitPar[b] ^= 1
			}
		}
	}
}

// refSyndrome is the byte-at-a-time syndrome the codec computed before it
// folded words, kept as the reference cwSyndrome must stay bit-identical
// to: parity written under one has to decode under the other.
func refSyndrome(cw []byte) uint16 {
	var xp, pr uint16
	for i, b := range cw {
		if b == 0 {
			continue
		}
		if bitPar[b] != 0 {
			xp ^= uint16(i) << 3
			pr ^= 1
		}
		xp ^= bitXOR[b]
	}
	if pr != 0 {
		xp |= synMark
	}
	return xp
}

// refEncode is ECCEncode over refSyndrome.
func refEncode(page []byte) []byte {
	out := ECCEncodeInto(nil, page)
	for c := 0; c < eccCodewords(len(page)); c++ {
		cw := page[c*eccCodewordBytes : min((c+1)*eccCodewordBytes, len(page))]
		binary.LittleEndian.PutUint16(out[2*c:], refSyndrome(cw))
	}
	return out
}

// TestECCMatchesBytewiseReference: the word-folding syndrome equals the
// byte-wise definition for every page length up to two codewords and a
// seven-byte tail — so every codeword length, word-aligned or not — over
// all-zero, all-ones, random and single-bit pages. Single bits are
// exhaustive at the longest length and at the word and codeword edges, and
// sampled (first, last, one random) elsewhere.
func TestECCMatchesBytewiseReference(t *testing.T) {
	const maxLen = 2*eccCodewordBytes + 7
	rng := rand.New(rand.NewSource(17))
	check := func(what string, page []byte) {
		t.Helper()
		if got, want := ECCEncodeInto(nil, page), refEncode(page); !bytes.Equal(got, want) {
			t.Fatalf("%s, %d bytes: parity %x, reference %x", what, len(page), got, want)
		}
	}
	page := make([]byte, maxLen)
	oneBit := func(n, pos int) {
		t.Helper()
		page[pos>>3] = 1 << (pos & 7)
		check(fmt.Sprintf("bit %d", pos), page[:n])
		page[pos>>3] = 0
	}
	for n := 0; n <= maxLen; n++ {
		clear(page)
		check("all-zero", page[:n])
		exhaustive := n <= 17 || n == maxLen || (n >= eccCodewordBytes-1 && n <= eccCodewordBytes+9)
		for pos := 0; pos < 8*n; pos++ {
			if exhaustive || pos == 0 || pos == 8*n-1 {
				oneBit(n, pos)
			}
		}
		if n > 0 {
			oneBit(n, rng.Intn(8*n))
		}
		for i := range page[:n] {
			page[i] = 0xff
		}
		check("all-ones", page[:n])
		rng.Read(page[:n])
		check("random", page[:n])
	}
}

var eccSink []byte

// BenchmarkECCEncode measures the parity computation for one 8 KiB page:
// sixteen codeword syndromes and the page CRC.
func BenchmarkECCEncode(b *testing.B) {
	page := testPage(8192, 9)
	b.SetBytes(int64(len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eccSink = ECCEncodeInto(eccSink, page)
	}
}
