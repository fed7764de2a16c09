package sim

// Rand is a small, fast, seeded PRNG (splitmix64) for workload generators.
// It is an order of magnitude cheaper than math/rand's locked source, never
// allocates, and — unlike the global math/rand functions, which simlint
// forbids — is explicitly seeded, so workloads that use it stay replayable.
// Not cryptographic.
//
// Existing workloads keep their math/rand sources: their golden schedules
// are pinned to that exact value stream. New generators should use Rand.
type Rand struct {
	s uint64
}

// NewRand returns a generator seeded with seed. Distinct seeds — including
// 0 and 1 — give well-separated streams.
func NewRand(seed int64) *Rand {
	return &Rand{s: uint64(seed)}
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	if n&(n-1) == 0 { // power of two
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int { return int(r.Int63n(int64(n))) }
