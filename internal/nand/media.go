package nand

import (
	"math/rand"
	"time"
)

// eccBits is the per-page correction capability, clamped to the number of
// ECC codewords per page.
const eccBits = 8

// MediaConfig parameterizes the seeded, deterministic bit-error model.
// The zero value is ideal media: no retention loss — reads behave exactly
// as before the model existed. Stuck-bit injection (InjectBitErrors) and
// the ECC threshold are active regardless, so fault-injection tests work
// on any configuration.
type MediaConfig struct {
	// Seed drives the stochastic rounding of fractional expected error
	// counts. Same seed + same read schedule = identical error outcomes.
	Seed int64
	// RetentionPerMs is the expected number of soft bit errors per page per
	// millisecond of (virtual) time since the page was programmed.
	RetentionPerMs float64
}

// ReadInfo reports the media-level detail of one successful page read.
type ReadInfo struct {
	// CorrectedBits is the number of bit errors the ECC corrected.
	CorrectedBits int
}

// initMedia sets up the error-model state (called from New).
func (a *Array) initMedia(m MediaConfig) {
	a.media = m
	a.eccBits = min(eccBits, eccCodewords(a.cfg.PageSize))
	a.mediaRng = rand.New(rand.NewSource(m.Seed))
}

// ProgrammedAt returns the virtual time ppn was last programmed (the
// scrubber's retention-age gate), 0 for a page that is not programmed.
func (a *Array) ProgrammedAt(ppn PPN) time.Duration {
	if m := a.Meta(ppn); m != nil {
		return m.at
	}
	return 0
}

// InjectBitErrors adds n stuck bit errors to the stored image of ppn —
// damage that read retries cannot shift away, cleared only by erasing the
// block. Returns false when ppn is out of range or not programmed.
func (a *Array) InjectBitErrors(ppn PPN, n int) bool {
	if int64(ppn) >= a.cfg.Pages() || a.state[ppn] != PageValid {
		return false
	}
	a.Meta(ppn).stuck += int32(n)
	return true
}

// softBits returns the model's transient (retry-recoverable) bit-error
// count for a read of ppn right now: retention age, with seeded stochastic
// rounding of the fractional part.
func (a *Array) softBits(ppn PPN) int {
	if a.media.RetentionPerMs <= 0 {
		return 0
	}
	age := float64(a.eng.Now()-a.Meta(ppn).at) / float64(time.Millisecond)
	x := a.media.RetentionPerMs * age
	n := int(x)
	if frac := x - float64(n); frac > 0 && a.mediaRng.Float64() < frac {
		n++
	}
	return n
}

// errorBits returns the total bit errors a read of ppn observes on retry
// attempt k (0 = first read). Each retry re-reads with a shifted reference
// voltage, halving the soft errors; stuck bits never improve.
func (a *Array) errorBits(ppn PPN, attempt int) int {
	soft := a.softBits(ppn)
	if attempt > 0 {
		soft >>= uint(attempt)
	}
	return int(a.Meta(ppn).stuck) + soft
}

// corruptPage flips n bits of page in place at deterministic positions,
// placed so the real ECC codec reaches the same verdict as the model:
// while n is within the correction threshold the flips spread one per
// codeword (each corrected by SEC-DED); beyond it they cluster in codeword
// zero, which SEC-DED detects (even count) or the page CRC catches (odd
// miscorrection).
func corruptPage(page []byte, ppn PPN, n, eccBits int) {
	if n <= 0 || len(page) == 0 {
		return
	}
	base := int(uint32(ppn) * 2654435761 >> 4) // Knuth hash: vary positions across pages
	if n <= eccBits {
		for k := 0; k < n; k++ {
			cw := cwSlice(page, k)
			pos := (base + k*40503) % (len(cw) * 8)
			cw[pos>>3] ^= 1 << (pos & 7)
		}
		return
	}
	cw := cwSlice(page, 0)
	bits := len(cw) * 8
	if n > bits {
		n = bits
	}
	for k := 0; k < n; k++ {
		pos := (base + k) % bits
		cw[pos>>3] ^= 1 << (pos & 7)
	}
}

// cwSlice returns the i-th codeword of page.
func cwSlice(page []byte, i int) []byte {
	start := i * eccCodewordBytes
	end := start + eccCodewordBytes
	if end > len(page) {
		end = len(page)
	}
	return page[start:end]
}
