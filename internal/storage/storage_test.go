package storage

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestChecksumDetectsFlips(t *testing.T) {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i)
	}
	sum := Checksum(page)
	page[100] ^= 0x01
	if Checksum(page) == sum {
		t.Fatal("single-bit flip not detected")
	}
}

func TestPageImageRoundTrip(t *testing.T) {
	buf := make([]byte, 4096)
	BuildPageImage(buf, 42, 7)
	id, ver, ok := ParsePageImage(buf)
	if !ok || id != 42 || ver != 7 {
		t.Fatalf("parse = (%d, %d, %v)", id, ver, ok)
	}
}

// refPageImage is the page image filler one LCG step per byte: the
// reference BuildPageImage's eight-lane filler must match byte for byte.
func refPageImage(buf []byte, id, version uint64) {
	binary.LittleEndian.PutUint64(buf[4:12], id)
	binary.LittleEndian.PutUint64(buf[12:20], version)
	seed := id*0x9e3779b97f4a7c15 ^ version*0xbf58476d1ce4e5b9
	for i := PageImageHeader; i < len(buf); i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		buf[i] = byte(seed >> 56)
	}
	binary.LittleEndian.PutUint32(buf[0:4], Checksum(buf[4:]))
}

// TestPageImageMatchesByteLoop compares every image length from the bare
// header to 8 KiB + 20 (every tail length, across several pages) with the
// byte loop. A shorter image's body is a prefix of a longer one's, so the
// reference is built once per (id, version) and re-checksummed per length.
func TestPageImageMatchesByteLoop(t *testing.T) {
	const maxLen = 8192 + PageImageHeader
	for _, iv := range [][2]uint64{{0, 0}, {0, 1}, {1, 0}, {42, 7}, {1 << 63, 1 << 63}, {^uint64(0), 3}} {
		id, ver := iv[0], iv[1]
		ref := make([]byte, maxLen)
		refPageImage(ref, id, ver)
		got := make([]byte, maxLen)
		for n := PageImageHeader; n <= maxLen; n++ {
			BuildPageImage(got[:n], id, ver)
			if !bytes.Equal(got[4:n], ref[4:n]) {
				t.Fatalf("id %d version %d length %d: body differs from the byte loop", id, ver, n)
			}
			if sum := binary.LittleEndian.Uint32(got); sum != Checksum(ref[4:n]) {
				t.Fatalf("id %d version %d length %d: checksum %#x differs from the byte loop's", id, ver, n, sum)
			}
		}
	}
}

func BenchmarkBuildPageImage(b *testing.B) {
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		BuildPageImage(buf, uint64(i), 1)
	}
}

func BenchmarkBuildPageImageByteLoop(b *testing.B) {
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		refPageImage(buf, uint64(i), 1)
	}
}

func TestPageImageDetectsTear(t *testing.T) {
	buf := make([]byte, 4096)
	BuildPageImage(buf, 1, 2)
	// Tear: second half replaced with garbage.
	for i := 2048; i < 4096; i++ {
		buf[i] = byte(0xde ^ i)
	}
	if _, _, ok := ParsePageImage(buf); ok {
		t.Fatal("torn image parsed as valid")
	}
}

func TestPageImageDeterministic(t *testing.T) {
	check := func(id, ver uint64) bool {
		a := make([]byte, 1024)
		b := make([]byte, 1024)
		BuildPageImage(a, id, ver)
		BuildPageImage(b, id, ver)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		gid, gver, ok := ParsePageImage(a)
		return ok && gid == id && gver == ver
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageImageVersionsDiffer(t *testing.T) {
	a := make([]byte, 1024)
	b := make([]byte, 1024)
	BuildPageImage(a, 5, 1)
	BuildPageImage(b, 5, 2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different versions produced identical images")
	}
}

func TestParsePageImageTooShort(t *testing.T) {
	if _, _, ok := ParsePageImage(make([]byte, 8)); ok {
		t.Fatal("short buffer parsed")
	}
}

func TestWriteAmplification(t *testing.T) {
	s := Stats{}
	if s.WriteAmplification() != 0 {
		t.Fatal("WA of empty stats not 0")
	}
	s.PagesWritten = 100
	s.NANDPrograms = 150
	if got := s.WriteAmplification(); got != 1.5 {
		t.Fatalf("WA = %v", got)
	}
}
