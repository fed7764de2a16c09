package storage

import "encoding/binary"

// Database page images used by the crash-consistency harnesses: a page is
// reproducible from (id, version), carries a CRC-32C over its whole body,
// and therefore detects torn writes exactly the way InnoDB page checksums
// do. The body is deterministic filler, so engines need not keep page
// bytes in memory — only the (id, version) pair.

// PageImageHeader is the byte size of the image header.
const PageImageHeader = 20

// The body is the top byte of each step of a 64-bit LCG (Knuth's MMIX
// constants) seeded from (id, version). It is generated eight bytes at a
// time: eight interleaved lanes each take eight LCG steps at once, with
// multiplier a⁸ and increment c·(a⁷ + … + 1) = c·(1+a)(1+a²)(1+a⁴), all
// mod 2⁶⁴ (each constant product stays within 128 bits).
const (
	lcgMul  = 6364136223846793005
	lcgInc  = 1442695040888963407
	lcgMul2 = lcgMul * lcgMul % (1 << 64)
	lcgMul4 = lcgMul2 * lcgMul2 % (1 << 64)
	lcgMul8 = lcgMul4 * lcgMul4 % (1 << 64)
	lcgInc8 = lcgInc * (1 + lcgMul) % (1 << 64) * (1 + lcgMul2) % (1 << 64) * (1 + lcgMul4) % (1 << 64)
)

// BuildPageImage fills buf (any size >= PageImageHeader) with the canonical
// image of page id at the given version.
func BuildPageImage(buf []byte, id uint64, version uint64) {
	binary.LittleEndian.PutUint64(buf[4:12], id)
	binary.LittleEndian.PutUint64(buf[12:20], version)
	// Deterministic body derived from (id, version). Lane j holds the state
	// that produces byte j of every group of eight; the lanes are scalars so
	// they stay in registers.
	s := id*0x9e3779b97f4a7c15 ^ version*0xbf58476d1ce4e5b9
	l0 := s*lcgMul + lcgInc
	l1 := l0*lcgMul + lcgInc
	l2 := l1*lcgMul + lcgInc
	l3 := l2*lcgMul + lcgInc
	l4 := l3*lcgMul + lcgInc
	l5 := l4*lcgMul + lcgInc
	l6 := l5*lcgMul + lcgInc
	l7 := l6*lcgMul + lcgInc
	body := buf[PageImageHeader:]
	for len(body) >= 8 {
		binary.LittleEndian.PutUint64(body, l0>>56|l1>>56<<8|l2>>56<<16|l3>>56<<24|
			l4>>56<<32|l5>>56<<40|l6>>56<<48|l7&0xff00000000000000)
		l0, l1, l2, l3 = l0*lcgMul8+lcgInc8, l1*lcgMul8+lcgInc8, l2*lcgMul8+lcgInc8, l3*lcgMul8+lcgInc8
		l4, l5, l6, l7 = l4*lcgMul8+lcgInc8, l5*lcgMul8+lcgInc8, l6*lcgMul8+lcgInc8, l7*lcgMul8+lcgInc8
		body = body[8:]
	}
	tail := [8]uint64{l0, l1, l2, l3, l4, l5, l6, l7}
	for j := range body {
		body[j] = byte(tail[j] >> 56)
	}
	binary.LittleEndian.PutUint32(buf[0:4], Checksum(buf[4:]))
}

// ParsePageImage validates buf's checksum and returns the embedded id and
// version. ok is false for torn, corrupt or never-written pages.
func ParsePageImage(buf []byte) (id, version uint64, ok bool) {
	if len(buf) < PageImageHeader {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != Checksum(buf[4:]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(buf[4:12]), binary.LittleEndian.Uint64(buf[12:20]), true
}
