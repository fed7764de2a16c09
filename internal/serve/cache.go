package serve

// Cache is the gateway's host-side read cache: an LRU keyed by document id
// with TinyLFU admission. Every lookup (hit or miss) feeds the count-min
// sketch; on a miss the fetched entry is admitted only if its estimated
// frequency beats the LRU victim it would evict, so one-shot scan traffic
// cannot wash out the resident hot set — the classic TinyLFU argument.
//
// The cache stores the document's current version (the serving layer's
// value surface); a write-through update keeps a resident entry coherent
// with the shard, so reads after writes never serve stale versions.
//
// The cache lives in the front (gateway) domain and is only touched by
// processes running there, so it needs no locking and its state evolves in
// deterministic virtual-time order.
type Cache struct {
	cap     int
	entries map[uint64]*centry
	sketch  *Sketch
	head    *centry // most recently used
	tail    *centry // least recently used (the admission victim)

	hits      int64
	misses    int64
	admits    int64
	rejects   int64
	evictions int64
}

type centry struct {
	key        uint64
	version    uint64
	prev, next *centry
}

// NewCache creates a cache holding at most capacity entries (at least 1).
func NewCache(capacity int) *Cache {
	return &Cache{
		cap:     capacity,
		entries: make(map[uint64]*centry, capacity),
		sketch:  NewSketch(capacity),
	}
}

// Get looks the key up, recording the access in the frequency sketch.
func (c *Cache) Get(key uint64) (version uint64, ok bool) {
	c.sketch.Increment(key)
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	c.moveToFront(e)
	return e.version, true
}

// Admit offers a freshly fetched (key, version) to the cache. While there
// is spare capacity everything is admitted; at capacity the TinyLFU filter
// compares the candidate's sketch estimate against the LRU victim's and
// only admits winners (ties lose: churn without evidence is not worth an
// eviction).
func (c *Cache) Admit(key uint64, version uint64) bool {
	if e, ok := c.entries[key]; ok {
		// Already resident (a racing fetch landed first): refresh in place.
		// Versions only move forward — a slow fetch that completed after a
		// newer one must not roll the entry back.
		if version > e.version {
			e.version = version
		}
		c.moveToFront(e)
		return true
	}
	var e *centry
	if len(c.entries) >= c.cap {
		victim := c.tail
		if c.sketch.Estimate(key) <= c.sketch.Estimate(victim.key) {
			c.rejects++
			return false
		}
		c.remove(victim)
		c.evictions++
		e = victim // its struct serves the entry that displaced it
	} else {
		e = &centry{} //simlint:allow hotalloc the cache is still filling; at capacity an admission reuses its victim's entry
	}
	e.key, e.version = key, version
	c.entries[key] = e
	c.pushFront(e)
	c.admits++
	return true
}

// Update write-throughs a resident entry to a new version; absent keys are
// left absent (a write is not evidence of read popularity). Updates are
// monotonic: concurrent writes to one key may complete out of order at the
// gateway, and the stale completion must not clobber the newer version.
func (c *Cache) Update(key uint64, version uint64) {
	if e, ok := c.entries[key]; ok && version > e.version {
		e.version = version
	}
}

// Counters returns the cumulative hit/miss/admit/reject/eviction tallies.
func (c *Cache) Counters() (hits, misses, admits, rejects, evictions int64) {
	return c.hits, c.misses, c.admits, c.rejects, c.evictions
}

func (c *Cache) pushFront(e *centry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) remove(e *centry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	delete(c.entries, e.key)
}

func (c *Cache) moveToFront(e *centry) {
	if c.head == e {
		return
	}
	c.remove(e)
	c.entries[e.key] = e
	c.pushFront(e)
}
