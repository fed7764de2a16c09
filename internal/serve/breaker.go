package serve

import "time"

// Breaker is a per-replica circuit breaker on the virtual clock. It opens
// after breakerThreshold consecutive hard failures (deadline blowouts,
// power failures, read-only degradation), swallowing further traffic to a
// replica that is evidently down instead of burning a deadline on every
// request. After breakerCooldown of virtual time the breaker goes
// half-open: exactly one probe request is let through, and its outcome
// decides between closing (replica recovered) and re-opening for another
// cooldown.
//
// The breaker is passive state queried on the request path — no timers, so
// an idle breaker never keeps the cluster alive. It lives in the gateway
// domain and is only touched by that domain's processes, so it needs no
// locks and its transitions land in deterministic virtual-time order. The
// zero Breaker is closed.
type Breaker struct {
	fails    int           // consecutive failures while closed
	open     bool          // true in both open and half-open
	openedAt time.Duration // virtual instant the breaker (re)opened
	probing  bool          // a half-open probe is in flight

	opens int64 // cumulative open transitions (reporting)
}

const (
	breakerThreshold = 4                     // consecutive failures that open the breaker
	breakerCooldown  = 15 * time.Millisecond // open duration before a half-open probe
)

// Allow reports whether a request may be sent at virtual time now. Closed:
// always. Open: only once the cooldown elapsed, and then exactly one probe
// until its outcome arrives.
func (b *Breaker) Allow(now time.Duration) bool {
	if !b.open {
		return true
	}
	if b.probing || now < b.openedAt+breakerCooldown {
		return false
	}
	b.probing = true
	return true
}

// Success records a successful request: the replica is healthy, the breaker
// closes and the consecutive-failure count resets.
func (b *Breaker) Success() {
	b.fails = 0
	b.open = false
	b.probing = false
}

// Failure records a hard failure at virtual time now. A failed half-open
// probe re-opens immediately; while closed, the breaker opens once the
// consecutive-failure count reaches the threshold.
func (b *Breaker) Failure(now time.Duration) {
	if b.open {
		// The in-flight probe (or a straggling pre-open request) failed:
		// restart the cooldown from here.
		b.probing = false
		b.openedAt = now
		return
	}
	b.fails++
	if b.fails >= breakerThreshold {
		b.open = true
		b.probing = false
		b.openedAt = now
		b.opens++
	}
}

// Open reports whether the breaker is open (including half-open).
func (b *Breaker) Open() bool { return b.open }

// Opens returns the cumulative number of closed->open transitions.
func (b *Breaker) Opens() int64 { return b.opens }
