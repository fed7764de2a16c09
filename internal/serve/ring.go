package serve

import "sort"

// Ring is a consistent-hash ring mapping document keys to shards. Each
// shard owns vnodesPerShard points on the ring (hashed with mix64, so the
// placement is deterministic and platform-independent), and a key routes to
// the shard owning the first point clockwise from the key's hash. The usual
// consistent-hashing property holds: adding or removing one shard moves
// only ~1/N of the key space, so a resharded deployment keeps most of its
// cache and slot placement intact.
type Ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

const vnodesPerShard = 64

// NewRing builds a ring over the given number of shards (at least 1).
func NewRing(shards int) *Ring {
	r := &Ring{points: make([]ringPoint, 0, shards*vnodesPerShard), shards: shards}
	for s := 0; s < shards; s++ {
		// Double-mix with a salt keeps vnode placement in a different hash
		// domain than key lookup: a key whose raw bits happen to equal a
		// (shard, vnode) encoding must not hash onto that vnode's point.
		base := mix64(uint64(s) ^ 0x517cc1b727220a95)
		for v := 0; v < vnodesPerShard; v++ {
			h := mix64(base + uint64(v)*0x9e3779b97f4a7c15)
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by shard id so the order —
		// and therefore routing — never depends on sort stability.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Lookup returns the shard owning the key: a binary search for the first
// point at or clockwise of the key's hash, written out so that routing a
// request builds no closure.
func (r *Ring) Lookup(key uint64) int {
	h := mix64(key)
	lo, hi := 0, len(r.points)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0 // wrap: first point clockwise from the top of the ring
	}
	return r.points[lo].shard
}

// Shards returns the number of shards on the ring.
func (r *Ring) Shards() int { return r.shards }
