package sqlexec

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultStatementCacheSize bounds the per-executor parsed-statement cache.
// The regeneration loop, gold evaluation and regression suite re-execute a
// small working set of SQL strings far more often than they introduce new
// ones, so a few hundred entries cover the hot set.
const DefaultStatementCacheSize = 512

// Shard layout. A single mutex-guarded LRU serializes every concurrent
// Query on one lock — under the parallel serving path that lock, not the
// work, becomes the bottleneck. The cache is therefore striped into up to
// maxStmtCacheShards independent shards (FNV-1a on the SQL text selects the
// shard), each an exact LRU with its own mutex. Small capacities collapse to
// fewer shards (minStmtShardCap entries per shard at least), so a tightly
// bounded cache keeps exact global LRU behavior instead of starving shards
// with a zero or one-entry budget.
const (
	maxStmtCacheShards = 16
	minStmtShardCap    = 32
)

// stmtCache is a concurrency-safe sharded LRU of compiled plans (each
// carrying its parsed statement), keyed by the raw SQL text. Cached plans
// are shared across executions; evaluation never mutates a parsed statement
// and compiled programs are stateless closures, so reuse is safe (including
// from concurrent eval workers). Hot-path operations (get/put) take only
// the owning shard's lock; a global atomic clock stamps each use so
// resizing can preserve the most recently used entries across a shard-count
// change.
type stmtCache struct {
	clock  atomic.Uint64 // global recency stamps for MRU-preserving resize
	cap    int           // total entry bound across shards
	shards []stmtShard
}

// stmtShard is one lock stripe. The trailing pad keeps adjacent shards'
// mutexes and counters out of one cache line, so contended shards do not
// false-share.
type stmtShard struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; element values are *stmtEntry
	items map[string]*list.Element

	hits   uint64
	misses uint64
	_      [64]byte
}

type stmtEntry struct {
	sql     string
	plan    *stmtPlan
	lastUse uint64 // global clock stamp of the most recent get/put
}

// stmtShardCount picks how many stripes a capacity supports: one per
// minStmtShardCap entries, capped at maxStmtCacheShards and floored at one.
// The default 512 yields 16 shards of 32 entries each.
func stmtShardCount(capacity int) int {
	n := capacity / minStmtShardCap
	if n < 1 {
		n = 1
	}
	if n > maxStmtCacheShards {
		n = maxStmtCacheShards
	}
	return n
}

// newStmtShards builds the stripe array for a total capacity, distributing
// the entry budget as evenly as possible (earlier shards absorb the
// remainder).
func newStmtShards(capacity int) []stmtShard {
	n := stmtShardCount(capacity)
	shards := make([]stmtShard, n)
	base, rem := capacity/n, capacity%n
	for i := range shards {
		shards[i].cap = base
		if i < rem {
			shards[i].cap++
		}
		shards[i].order = list.New()
		shards[i].items = make(map[string]*list.Element, shards[i].cap)
	}
	return shards
}

func newStmtCache(capacity int) *stmtCache {
	if capacity <= 0 {
		capacity = DefaultStatementCacheSize
	}
	return &stmtCache{cap: capacity, shards: newStmtShards(capacity)}
}

// FNV-1a over the SQL text selects the shard; the same constants as
// hash/fnv's New64a.
const (
	stmtFNVOffset uint64 = 14695981039346656037
	stmtFNVPrime  uint64 = 1099511628211
)

func (c *stmtCache) shardFor(sql string) *stmtShard {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	h := stmtFNVOffset
	for i := 0; i < len(sql); i++ {
		h ^= uint64(sql[i])
		h *= stmtFNVPrime
	}
	return &c.shards[h%uint64(len(c.shards))]
}

func (c *stmtCache) get(sql string) (*stmtPlan, bool) {
	sh := c.shardFor(sql)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[sql]
	if !ok {
		sh.misses++
		return nil, false
	}
	sh.hits++
	sh.order.MoveToFront(el)
	ent := el.Value.(*stmtEntry)
	ent.lastUse = c.clock.Add(1)
	return ent.plan, true
}

func (c *stmtCache) put(sql string, plan *stmtPlan) {
	sh := c.shardFor(sql)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[sql]; ok {
		ent := el.Value.(*stmtEntry)
		ent.plan = plan
		ent.lastUse = c.clock.Add(1)
		sh.order.MoveToFront(el)
		return
	}
	ent := &stmtEntry{sql: sql, plan: plan, lastUse: c.clock.Add(1)}
	sh.items[sql] = sh.order.PushFront(ent)
	sh.evictOverCap()
}

// evictOverCap drops least-recently-used entries until the shard fits its
// budget. Callers hold sh.mu.
func (sh *stmtShard) evictOverCap() {
	for sh.order.Len() > sh.cap {
		oldest := sh.order.Back()
		sh.order.Remove(oldest)
		delete(sh.items, oldest.Value.(*stmtEntry).sql)
	}
}

func (c *stmtCache) stats() (hits, misses uint64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		sh.mu.Unlock()
	}
	return hits, misses
}

// entries reports the total number of cached statements across shards.
func (c *stmtCache) entries() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.order.Len()
		sh.mu.Unlock()
	}
	return n
}

// setCapacity rebounds the sharded LRU, preserving the most recently used
// entries when shrinking: every entry is redistributed into the new shard
// layout in most-recent-first order (the per-entry clock stamps give a
// total recency order across shards), each landing at the back of its new
// shard, and once a shard's budget fills, older entries bound for it are
// dropped. Within each new shard exactly its most recent entries survive;
// when the new layout is a single shard (any capacity below
// 2*minStmtShardCap, which covers every tightly bounded configuration)
// that is exactly the global MRU set. Across multiple new shards the kept
// set is per-shard MRU — a hash-skewed working set may retain a slightly
// colder entry in an underfull shard over a hotter one in a full shard.
// Hit/miss counters are preserved. It is not synchronized against
// concurrent Query calls — size the cache before sharing the executor.
func (c *stmtCache) setCapacity(capacity int) {
	if capacity <= 0 {
		capacity = DefaultStatementCacheSize
	}
	if capacity == c.cap {
		return
	}
	var all []*stmtEntry
	var hits, misses uint64
	for i := range c.shards {
		sh := &c.shards[i]
		hits += sh.hits
		misses += sh.misses
		for el := sh.order.Front(); el != nil; el = el.Next() {
			all = append(all, el.Value.(*stmtEntry))
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lastUse > all[j].lastUse })
	c.cap = capacity
	c.shards = newStmtShards(capacity)
	c.shards[0].hits = hits
	c.shards[0].misses = misses
	for _, ent := range all {
		sh := c.shardFor(ent.sql)
		if sh.order.Len() >= sh.cap {
			continue
		}
		sh.items[ent.sql] = sh.order.PushBack(ent)
	}
}

// capacity returns the current total LRU bound.
func (c *stmtCache) capacity() int { return c.cap }

// SetStatementCacheSize rebounds the parsed-statement LRU to n entries,
// preserving the most recently used statements when shrinking. n <= 0
// restores DefaultStatementCacheSize. Calling it on an executor whose cache
// was disabled re-enables caching at the given size. It is not synchronized
// against concurrent Query calls — size the cache before sharing the
// executor across goroutines.
func (e *Executor) SetStatementCacheSize(n int) {
	if e.stmts == nil {
		if n <= 0 {
			n = DefaultStatementCacheSize
		}
		e.stmts = newStmtCache(n)
		return
	}
	e.stmts.setCapacity(n)
}

// StatementCacheSize reports the LRU bound; 0 when caching is disabled.
func (e *Executor) StatementCacheSize() int {
	if e.stmts == nil {
		return 0
	}
	return e.stmts.capacity()
}

// StatementCacheStats reports cache hits and misses since construction; both
// are zero when caching is disabled.
func (e *Executor) StatementCacheStats() (hits, misses uint64) {
	if e.stmts == nil {
		return 0, 0
	}
	return e.stmts.stats()
}
