package serve

// Bloom is a fixed-size Bloom filter over uint64 keys, used by the serving
// layer as a negative-lookup filter: the gateway builds one per shard over
// the keys that exist there, and a read whose key the filter rejects is
// answered "not found" without paying the shard round trip. The filter is
// built once at load time and queried on the read path, so the only
// property the serving layer relies on is the structural one: a key that
// was inserted is never reported absent (no false negatives, ever). False
// positives merely cost one shard read.
//
// Hashing is splitmix64-derived double hashing (h1 + i*h2), the standard
// Kirsch–Mitzenmacher construction; everything is fixed arithmetic, so the
// filter is deterministic across runs and platforms.
type Bloom struct {
	bits  []uint64
	nbits uint64
	k     int
	n     int // keys inserted
}

// NewBloom sizes a filter for the expected number of keys at roughly 1%
// false positives (10 bits per key, 7 hash functions).
func NewBloom(expected int) *Bloom {
	nbits := uint64(expected) * 10
	// Round up to a multiple of 64 with a small floor so tiny filters
	// still have room to spread their hash functions.
	if nbits < 256 {
		nbits = 256
	}
	nbits = (nbits + 63) &^ 63
	return &Bloom{bits: make([]uint64, nbits/64), nbits: nbits, k: 7}
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashes derives the double-hashing pair for a key. h2 is forced odd so
// successive probes cycle through distinct bit positions.
func (b *Bloom) hashes(key uint64) (h1, h2 uint64) {
	h1 = mix64(key)
	h2 = mix64(key^0xa5a5a5a5a5a5a5a5) | 1
	return h1, h2
}

// Add inserts a key.
func (b *Bloom) Add(key uint64) {
	h1, h2 := b.hashes(key)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % b.nbits
		b.bits[bit/64] |= 1 << (bit % 64)
	}
	b.n++
}

// Contains reports whether the key may have been inserted. False positives
// are possible; false negatives are not.
func (b *Bloom) Contains(key uint64) bool {
	h1, h2 := b.hashes(key)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % b.nbits
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}
