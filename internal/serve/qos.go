package serve

import (
	"time"

	"durassd/internal/stats"
)

// TokenBucket is a GCRA rate limiter (the "virtual scheduler" formulation
// of the leaky bucket) in pure integer time.Duration arithmetic, so it is
// deterministic across runs and platforms — no floating point, no wall
// clock, only the virtual now the caller passes in.
//
// The sustained-rate guarantee the property tests pin down: over any
// interval the number of conforming admissions is at most
// burst + interval/T, where T is the emission interval (1s / rate). A
// caller that always sleeps the returned wait before proceeding can never
// exceed its configured rate.
type TokenBucket struct {
	interval time.Duration // T: virtual time consumed per admission
	tau      time.Duration // burst tolerance: (burst-1)*T
	tat      time.Duration // theoretical arrival time of the next admission
}

// NewTokenBucket builds a limiter admitting ratePerSec requests per second
// of virtual time with the given burst size (at least 1 each).
func NewTokenBucket(ratePerSec, burst int) *TokenBucket {
	t := time.Second / time.Duration(ratePerSec)
	if t < 1 {
		t = 1
	}
	return &TokenBucket{interval: t, tau: time.Duration(burst-1) * t}
}

// Take reserves one admission slot at virtual time now and returns how long
// the caller must wait before proceeding (0 = conforming immediately).
// Slots are granted in call order, so a queue of callers drains at exactly
// the configured rate once the burst allowance is spent.
func (tb *TokenBucket) Take(now time.Duration) (wait time.Duration) {
	if now > tb.tat {
		tb.tat = now // idle credit never accumulates beyond the burst
	}
	if conformsAt := tb.tat - tb.tau; now < conformsAt {
		wait = conformsAt - now
	}
	tb.tat += tb.interval
	return wait
}

// TenantAccount is the per-tenant QoS ledger: the token bucket enforcing
// the tenant's rate and the latency/outcome tallies the report is built
// from. It lives in the gateway domain and is only touched by that domain's
// processes, so no locking is needed.
type TenantAccount struct {
	Name   string
	Bucket *TokenBucket

	Reads     stats.Hist // end-to-end latency of successful reads
	Writes    stats.Hist // end-to-end latency of successful writes
	Ops       int64      // successful operations
	Shed      int64      // rejected with ErrOverloaded (queue full)
	Throttled int64      // operations delayed by the token bucket
	ThrottleT time.Duration
	CacheHits int64 // reads answered from the gateway cache
	BloomSkip int64 // reads answered "absent" by the negative-lookup filter

	Retried     int64 // client-side retries after ErrOverloaded (backoff slept)
	StaleReads  int64 // cache hits served while the owning group was below quorum
	Unavailable int64 // operations refused with ErrShardUnavailable
}

// NewTenantAccount creates the ledger for one tenant with the given rate
// limit (ops per second of virtual time) and burst.
func NewTenantAccount(name string, ratePerSec, burst int) *TenantAccount {
	return &TenantAccount{Name: name, Bucket: NewTokenBucket(ratePerSec, burst)}
}
