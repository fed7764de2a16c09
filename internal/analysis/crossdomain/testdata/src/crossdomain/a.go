// Package crossdomain is analyzer testdata built against the real
// simulator types: closures shipped between domains must transfer
// ownership, and synchronous Call closures must not retain caller memory.
package crossdomain

import "durassd/internal/sim"

type result struct {
	v   []byte
	ok  bool
	err error
}

type cache struct {
	last *[]byte
}

func fetch() ([]byte, error) { return nil, nil }

// brokenProxy is the deliberately-broken span proxy: the shipped closure
// appends into a slice the sender keeps reading, so the two domains share
// a mutable buffer with no ordering between them.
func brokenProxy(d, remote *sim.Domain, buf []byte) int {
	d.Send(remote, func() { // want `variable buf is captured by a closure sent to another domain but still used by the sender at a\.go:\d+; cross-domain messages must transfer ownership, not share memory`
		buf[0] = 1
	})
	return len(buf)
}

// fixedProxy is the accepted rewrite: ownership of buf transfers with the
// message — the sender never touches it again.
func fixedProxy(d, remote *sim.Domain, buf []byte) {
	d.Send(remote, func() {
		buf[0] = 1
	})
}

// selfSend is an ordinary local event, not a cross-domain shipment.
func selfSend(d *sim.Domain, n *int) int {
	d.Send(d, func() { *n++ })
	return *n
}

// exemptCapture names another domain after shipping to it: the messaging
// primitives are designed to be shared across domains.
func exemptCapture(d, remote *sim.Domain) *sim.Domain {
	d.Send(remote, func() {
		remote.Send(remote, func() {})
	})
	return remote
}

type poker struct{ hits int }

func (k *poker) Poke() { k.hits++ }

// methodValue ships a bound method: the receiver travels with it.
func methodValue(d, remote *sim.Domain, k *poker) int {
	d.Send(remote, k.Poke) // want `variable k is captured by a closure sent to another domain but still used by the sender`
	return k.hits
}

// loopSend re-uses the captured slice on the next iteration, which runs
// after the send.
func loopSend(d, remote *sim.Domain, counts []int) {
	for i := 0; i < len(counts); i++ {
		d.Send(remote, func() { // want `variable counts is captured by a closure sent to another domain but still used by the sender`
			counts[0]++
		})
	}
}

// okCall is the sanctioned synchronous idiom: results come back through
// bare captured identifiers, ordered by the epoch barrier.
func okCall(p *sim.Proc, d, remote *sim.Domain) result {
	var r result
	d.Call(p, remote, "get", func(q *sim.Proc) {
		r.v, r.err = fetch()
	})
	return r
}

// retainVia stores a pointer to caller memory into remote state that
// outlives the call.
func retainVia(p *sim.Proc, d, remote *sim.Domain, c *cache, buf []byte) {
	d.Call(p, remote, "put", func(q *sim.Proc) {
		c.last = &buf // want `closure run in another domain via Call stores a reference to caller memory \(&buf\) into c\.last; the remote domain would retain caller state beyond the call`
	})
}
