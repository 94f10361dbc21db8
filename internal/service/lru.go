package service

import "container/list"

// lru is a size-bounded least-recently-used map from canonical
// configuration keys to completed results' canonical /v1/run bodies. It is
// not goroutine-safe: the Service serializes access under its mutex.
type lru struct {
	capacity int
	order    *list.List // front = most recently used; values are *lruEntry
	entries  map[string]*list.Element
}

// lruEntry is one cached result; key is kept for map cleanup on eviction.
type lruEntry struct {
	key  string
	body []byte
}

func newLRU(capacity int) *lru {
	if capacity < 1 {
		capacity = 1
	}
	return &lru{capacity: capacity, order: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the cached result for key and marks it most recently used.
func (c *lru) get(key string) ([]byte, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).body, true
}

// add inserts (or refreshes) a result, evicting the least recently used
// entry when the cache is full.
func (c *lru) add(key string, body []byte) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry).body = body
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry).key)
	}
	c.entries[key] = c.order.PushFront(&lruEntry{key: key, body: body})
}

// len returns the number of cached entries.
func (c *lru) len() int { return c.order.Len() }
