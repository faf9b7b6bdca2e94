package engine

import (
	"container/list"
	"sync"

	"nanoxbar/internal/cachestore"
	"nanoxbar/internal/core"
)

// flight is one cache slot: either a completed synthesis result or a
// computation in progress that followers wait on. Completed flights are
// immutable; the Implementation they hold is shared read-only across
// every request that hits the slot.
type flight struct {
	done chan struct{} // closed when imp/err are final
	imp  *core.Implementation
	err  error
}

// cache is a canonicalizing LRU over synthesis results with in-flight
// deduplication: concurrent misses for one key run the compute function
// exactly once, and followers block on the leader's flight instead of
// recomputing. Eviction only removes completed entries, oldest first.
//
// One cache guards its map with a single mutex, so it is also the
// contention unit: the engine stripes keys across many of them via
// shardedCache rather than growing one lock's critical section.
type cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element // key → element whose Value is *cacheNode
	order    *list.List               // front = most recently used

	hits, misses, evictions, loads uint64
}

type cacheNode struct {
	key string
	fl  *flight
}

func newCache(capacity int) *cache {
	if capacity < 1 {
		capacity = 1
	}
	return &cache{
		capacity: capacity,
		entries:  make(map[string]*list.Element, capacity),
		order:    list.New(),
	}
}

// getOrCompute returns the cached result for key, computing it with fn
// on a miss. The boolean reports a hit: true whenever this call did not
// itself run fn (including when it waited on another goroutine's
// in-flight computation). Failed computations are removed so later
// calls retry.
func (c *cache) getOrCompute(key string, fn func() (*core.Implementation, error)) (*core.Implementation, error, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		fl := el.Value.(*cacheNode).fl
		c.mu.Unlock()
		<-fl.done
		return fl.imp, fl.err, true
	}
	fl := &flight{done: make(chan struct{})}
	el := c.order.PushFront(&cacheNode{key: key, fl: fl})
	c.entries[key] = el
	c.misses++
	c.evictLocked()
	c.mu.Unlock()

	fl.imp, fl.err = fn()
	close(fl.done)
	if fl.err != nil {
		c.mu.Lock()
		// Only remove our own flight: the slot may already have been
		// evicted and repopulated by a retry.
		if cur, ok := c.entries[key]; ok && cur.Value.(*cacheNode).fl == fl {
			c.order.Remove(cur)
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	return fl.imp, fl.err, false
}

// peek returns the completed, successful entry for key without
// computing, blocking on an in-flight slot, touching the LRU order, or
// counting a hit/miss. It exists for the cluster peer-fill route: a
// sibling's lookup must not distort this node's own hit-rate
// accounting, and it must never wait behind a running synthesis.
func (c *cache) peek(key string) (*core.Implementation, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	fl := el.Value.(*cacheNode).fl
	select {
	case <-fl.done:
		if fl.err == nil && fl.imp != nil {
			return fl.imp, true
		}
		return nil, false
	default: // still computing — report a miss rather than block
		return nil, false
	}
}

// evictLocked trims completed entries from the LRU tail until the cache
// fits its capacity. In-flight entries are skipped — evicting them
// would duplicate running syntheses.
func (c *cache) evictLocked() {
	for el := c.order.Back(); el != nil && c.order.Len() > c.capacity; {
		prev := el.Prev()
		node := el.Value.(*cacheNode)
		select {
		case <-node.fl.done:
			c.order.Remove(el)
			delete(c.entries, node.key)
			c.evictions++
		default: // still computing
		}
		el = prev
	}
}

// counters returns a consistent snapshot of the cache statistics.
func (c *cache) counters() (hits, misses, evictions uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.order.Len()
}

// insert seeds a completed entry, used when warming the cache from a
// snapshot. An existing slot for the key wins — live results (possibly
// in flight) are never replaced by persisted ones. The entry lands at
// the LRU front, so a snapshot is replayed oldest-first to preserve
// recency order.
func (c *cache) insert(key string, imp *core.Implementation) bool {
	fl := &flight{done: make(chan struct{}), imp: imp}
	close(fl.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	c.entries[key] = c.order.PushFront(&cacheNode{key: key, fl: fl})
	c.loads++
	c.evictLocked()
	return true
}

// snapshot appends the completed entries in eviction order (least
// recently used first) to dst. In-flight computations are skipped: a
// snapshot taken mid-synthesis persists only finished results.
func (c *cache) snapshot(dst []cachestore.Entry) []cachestore.Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Back(); el != nil; el = el.Prev() {
		node := el.Value.(*cacheNode)
		select {
		case <-node.fl.done:
			if node.fl.err == nil && node.fl.imp != nil {
				dst = append(dst, cachestore.Entry{Key: node.key, Imp: node.fl.imp})
			}
		default: // still computing
		}
	}
	return dst
}

// shardedCache stripes the synthesis cache across independent
// single-lock shards so cache-hit traffic scales with GOMAXPROCS
// instead of serializing on one mutex. Keys are assigned to shards by
// FNV-1a hash; each shard keeps its own LRU order and singleflight
// slots, and the aggregate statistics are the sum over shards.
type shardedCache struct {
	shards []*cache
	mask   uint64
}

// newShardedCache builds a cache of roughly `capacity` total entries
// striped over `shards` shards (rounded up to a power of two).
func newShardedCache(capacity, shards int) *shardedCache {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if capacity < 1 {
		capacity = 1
	}
	per := (capacity + n - 1) / n
	s := &shardedCache{shards: make([]*cache, n), mask: uint64(n - 1)}
	for i := range s.shards {
		s.shards[i] = newCache(per)
	}
	return s
}

// shardFor hashes the key onto its shard with FNV-1a over at most the
// first 16 bytes. Keys are sha-256 hex strings, so a 16-char prefix is
// already uniformly distributed; bounding the hash keeps the shard pick
// a few nanoseconds instead of scaling with key length.
func (s *shardedCache) shardFor(key string) *cache {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	n := len(key)
	if n > 16 {
		n = 16
	}
	h := uint64(offset64)
	for i := 0; i < n; i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return s.shards[h&s.mask]
}

func (s *shardedCache) getOrCompute(key string, fn func() (*core.Implementation, error)) (*core.Implementation, error, bool) {
	return s.shardFor(key).getOrCompute(key, fn)
}

func (s *shardedCache) insert(key string, imp *core.Implementation) bool {
	return s.shardFor(key).insert(key, imp)
}

func (s *shardedCache) peek(key string) (*core.Implementation, bool) {
	return s.shardFor(key).peek(key)
}

// snapshot collects the completed entries of every shard,
// least-recently-used first within each shard.
func (s *shardedCache) snapshot() []cachestore.Entry {
	var dst []cachestore.Entry
	for _, sh := range s.shards {
		dst = sh.snapshot(dst)
	}
	return dst
}

// counters sums the per-shard statistics, locking one shard at a time.
// The totals are approximate under concurrent traffic (shard 0's count
// is read before shard N's moves), which is fine for observability —
// holding every shard lock at once would turn each /healthz or /stats
// poll into exactly the global serialization point sharding removed.
func (s *shardedCache) counters() (hits, misses, evictions, loads uint64, entries int) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		evictions += sh.evictions
		loads += sh.loads
		entries += sh.order.Len()
		sh.mu.Unlock()
	}
	return hits, misses, evictions, loads, entries
}

// cacheShardStats is one shard's statistics snapshot, consumed by the
// metrics registry's per-shard families.
type cacheShardStats struct {
	hits, misses, evictions, loads uint64
	entries                        int
}

// perShard snapshots every shard's statistics, locking one shard at a
// time (the same consistency tradeoff as counters).
func (s *shardedCache) perShard() []cacheShardStats {
	out := make([]cacheShardStats, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = cacheShardStats{sh.hits, sh.misses, sh.evictions, sh.loads, sh.order.Len()}
		sh.mu.Unlock()
	}
	return out
}

// capacity is the summed shard capacity (≥ the requested total due to
// per-shard rounding).
func (s *shardedCache) capacity() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.capacity
	}
	return total
}
