package nand

import (
	"math/rand"
	"time"
)

// DefaultECCBits is the per-page correction capability assumed when
// MediaConfig.ECCBits is zero.
const DefaultECCBits = 8

// MediaConfig parameterizes the seeded, deterministic bit-error model.
// The zero value is ideal media: no retention loss, no read disturb, no
// wear sensitivity — reads behave exactly as before the model existed.
// Stuck-bit injection (InjectBitErrors) and the ECC threshold are active
// regardless, so fault-injection tests work on any configuration.
type MediaConfig struct {
	// Seed drives the stochastic rounding of fractional expected error
	// counts. Same seed + same read schedule = identical error outcomes.
	Seed int64
	// RetentionPerMs is the expected number of soft bit errors per page per
	// millisecond of (virtual) time since the page was programmed.
	RetentionPerMs float64
	// DisturbPerKRead is the expected number of soft bit errors per page
	// per thousand physical reads of any page in its block.
	DisturbPerKRead float64
	// WearFactor scales both rates by (1 + WearFactor × block erase count),
	// modeling cell degradation with program/erase cycles.
	WearFactor float64
	// ECCBits is the correctable-bit threshold per page (0 = DefaultECCBits).
	// It is clamped to the number of ECC codewords per page.
	ECCBits int
}

// active reports whether the time/read-dependent error rates are armed.
func (m MediaConfig) active() bool {
	return m.RetentionPerMs > 0 || m.DisturbPerKRead > 0
}

// ReadInfo reports the media-level detail of one successful page read.
type ReadInfo struct {
	// CorrectedBits is the number of bit errors the ECC corrected.
	CorrectedBits int
}

// initMedia sets up the error-model state (called from New).
func (a *Array) initMedia(m MediaConfig) {
	a.media = m
	a.eccBits = m.ECCBits
	if a.eccBits <= 0 {
		a.eccBits = DefaultECCBits
	}
	if cw := eccCodewords(a.cfg.PageSize); a.eccBits > cw {
		a.eccBits = cw
	}
	a.mediaRng = rand.New(rand.NewSource(m.Seed))
	a.blockReads = make([]int64, a.cfg.Blocks())
}

// ECCBits returns the effective per-page correction threshold.
func (a *Array) ECCBits() int { return a.eccBits }

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

// SetWear overrides the erase counter of the global block index (campaign
// hook: pre-age specific blocks so wear-out retirement triggers on a
// schedule instead of after thousands of simulated erases).
func (a *Array) SetWear(block int, erases int64) { a.erases[block] = erases }

// softBits returns the model's transient (retry-recoverable) bit-error
// count for a read of ppn right now: retention age and accumulated block
// read disturb, scaled by wear, with seeded stochastic rounding of the
// fractional part.
func (a *Array) softBits(ppn PPN) int {
	m := a.media
	if !m.active() {
		return 0
	}
	block := a.BlockOf(ppn)
	age := float64(a.eng.Now()-a.Meta(ppn).at) / float64(time.Millisecond)
	x := m.RetentionPerMs*age + m.DisturbPerKRead*float64(a.blockReads[block])/1000
	x *= 1 + m.WearFactor*float64(a.erases[block])
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
