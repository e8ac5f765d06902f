package batch

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/graphspec"
	"github.com/repro/cobra/internal/obs"
)

// Cache is a thread-safe LRU of compiled graphs keyed by canonical
// graphspec string plus generation seed. Graphs are immutable after
// construction, so one cached instance is safely shared by every
// campaign (and every worker) that references it.
//
// Concurrent requests for the same missing key build the graph once: the
// first requester inserts a pending entry and builds outside the lock;
// later requesters block on the entry's ready channel.
type Cache struct {
	mu           sync.Mutex
	cap          int
	ll           *list.List // front = most recently used
	m            map[string]*list.Element
	hits, misses int64
	evictions    int64

	// compile observes every build a miss starts, failed ones included.
	// A Server sets it before first use; library and fleet-worker caches
	// leave it nil, which no-ops.
	compile *obs.Histogram
}

type cacheEntry struct {
	key   string
	g     *graph.Graph
	err   error
	ready chan struct{}
}

// NewCache returns an LRU cache holding up to capacity graphs
// (capacity < 1 is treated as 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// GetOrBuild returns the graph for (spec, seed), building and caching it
// on a miss. Its key is the canonical spec string tagged with the
// generation seed ("ba:500:3#7"). Build failures are returned and never
// cached.
func (c *Cache) GetOrBuild(spec string, seed uint64) (*graph.Graph, error) {
	canon, err := graphspec.Canonical(spec)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s#%d", canon, seed)

	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.g, e.err
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	el := c.ll.PushFront(e)
	c.m[key] = el
	c.misses++
	c.evictLocked()
	c.mu.Unlock()

	start := time.Now()
	e.g, e.err = graphspec.Parse(canon, seed)
	c.compile.Observe(time.Since(start).Seconds())
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		if cur, ok := c.m[key]; ok && cur == el {
			c.ll.Remove(el)
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
	return e.g, e.err
}

// evictLocked trims the cache to capacity, oldest first, skipping entries
// whose build is still in flight (they are evicted once superseded).
func (c *Cache) evictLocked() {
	for el := c.ll.Back(); el != nil && c.ll.Len() > c.cap; {
		prev := el.Prev()
		e := el.Value.(*cacheEntry)
		select {
		case <-e.ready:
			c.ll.Remove(el)
			delete(c.m, e.key)
			c.evictions++
		default: // still building; leave it
		}
		el = prev
	}
}

// Stats returns cumulative hit/miss counts and the current entry count.
func (c *Cache) Stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}

// Evictions returns how many completed entries capacity pressure has
// removed (failed builds cleaned out of the cache do not count).
func (c *Cache) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
