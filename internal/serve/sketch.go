package serve

// Sketch is a count-min sketch over uint64 keys: the frequency oracle
// behind the read cache's TinyLFU admission policy. Increment never touches
// more than depth counters, Estimate returns the minimum over them, and the
// structural guarantee the cache relies on is overestimate-only: the
// estimate is never below the true increment count (collisions can only
// inflate a counter, never deflate it). Aging (Halve) trades that bound for
// recency, exactly as TinyLFU prescribes: after a halving the estimate may
// undercount old traffic but still never undercounts traffic seen since.
//
// Counters are 4-bit saturating nibbles packed 16 to a uint64 — frequency
// beyond 15 carries no extra admission signal, and the packing keeps even a
// large sketch a few kilobytes, matching the TinyLFU paper's layout.
type Sketch struct {
	rows  [sketchDepth][]uint64
	mask  uint64 // counters per row - 1 (power of two)
	adds  int    // increments since the last halving
	limit int    // increments that trigger an automatic halving (0 = never)
}

const sketchDepth = 4

// NewSketch sizes a sketch for the given number of distinct hot keys. The
// counter count per row is the next power of two >= 2*capacity, and the
// sketch halves itself every 10*capacity increments (the TinyLFU sample
// window) so stale traffic decays.
func NewSketch(capacity int) *Sketch {
	n := uint64(64)
	for n < uint64(capacity)*2 {
		n *= 2
	}
	s := &Sketch{mask: n - 1, limit: capacity * 10}
	for i := range s.rows {
		s.rows[i] = make([]uint64, n/16)
	}
	return s
}

// counterIndex returns the (word, shift) address of row i's counter for key.
func (s *Sketch) counterIndex(i int, key uint64) (word int, shift uint) {
	h := mix64(key ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
	c := h & s.mask
	return int(c / 16), uint(c % 16 * 4)
}

// Increment bumps the key's counters (saturating at 15). When the sample
// window fills, every counter in the sketch is halved.
func (s *Sketch) Increment(key uint64) {
	for i := 0; i < sketchDepth; i++ {
		w, sh := s.counterIndex(i, key)
		if v := (s.rows[i][w] >> sh) & 0xf; v < 15 {
			s.rows[i][w] += 1 << sh
		}
	}
	s.adds++
	if s.limit > 0 && s.adds >= s.limit {
		s.Halve()
	}
}

// Estimate returns the key's frequency estimate: the minimum over the
// key's counters, never less than the true count seen since the last
// halving (and at most 15).
func (s *Sketch) Estimate(key uint64) int {
	est := uint64(15)
	for i := 0; i < sketchDepth; i++ {
		w, sh := s.counterIndex(i, key)
		if v := (s.rows[i][w] >> sh) & 0xf; v < est {
			est = v
		}
	}
	return int(est)
}

// Halve ages the sketch: every 4-bit counter is divided by two. The
// overestimate-only bound restarts from this instant.
func (s *Sketch) Halve() {
	for i := range s.rows {
		for w := range s.rows[i] {
			// Shift every nibble right by one; the mask clears the bit
			// that would otherwise leak in from the neighbouring counter.
			s.rows[i][w] = (s.rows[i][w] >> 1) & 0x7777777777777777
		}
	}
	s.adds = 0
}
