package sqlexec

import (
	"container/list"
	"sync"
)

// Statement-cache layout. The regeneration loop, gold evaluation and
// regression suite re-execute a small working set of SQL strings far more
// often than they introduce new ones: served SQL peaks at a few dozen
// distinct statements per engine, so 512 entries cover the hot set many
// times over. A single mutex-guarded LRU would serialize every concurrent
// Query on one lock, so the cache is striped into stmtCacheShards
// independent shards (FNV-1a on the SQL text selects the shard), each an
// exact LRU of stmtShardCap entries with its own mutex.
const (
	stmtCacheShards = 16
	stmtShardCap    = 32
)

// stmtCache is a concurrency-safe sharded LRU of compiled plans (each
// carrying its parsed statement), keyed by the raw SQL text. Cached plans
// are shared across executions; evaluation never mutates a parsed statement
// and compiled programs are stateless closures, so reuse is safe (including
// from concurrent eval workers). Every operation on one statement takes only
// its shard's lock.
type stmtCache struct {
	shards [stmtCacheShards]stmtShard
}

// stmtShard is one lock stripe. The trailing pad keeps adjacent shards'
// mutexes and counters out of one cache line, so contended shards do not
// false-share.
type stmtShard struct {
	mu    sync.Mutex
	order *list.List // front = most recently used; element values are *stmtEntry
	items map[string]*list.Element

	hits   uint64
	misses uint64
	_      [64]byte
}

type stmtEntry struct {
	sql  string
	plan *stmtPlan
}

func newStmtCache() *stmtCache {
	c := &stmtCache{}
	for i := range c.shards {
		c.shards[i].order = list.New()
		c.shards[i].items = make(map[string]*list.Element, stmtShardCap)
	}
	return c
}

// FNV-1a over the SQL text selects the shard; the same constants as
// hash/fnv's New64a.
const (
	stmtFNVOffset uint64 = 14695981039346656037
	stmtFNVPrime  uint64 = 1099511628211
)

func (c *stmtCache) shardFor(sql string) *stmtShard {
	h := stmtFNVOffset
	for i := 0; i < len(sql); i++ {
		h ^= uint64(sql[i])
		h *= stmtFNVPrime
	}
	return &c.shards[h%stmtCacheShards]
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
	return el.Value.(*stmtEntry).plan, true
}

func (c *stmtCache) put(sql string, plan *stmtPlan) {
	sh := c.shardFor(sql)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[sql]; ok {
		el.Value.(*stmtEntry).plan = plan
		sh.order.MoveToFront(el)
		return
	}
	sh.items[sql] = sh.order.PushFront(&stmtEntry{sql: sql, plan: plan})
	if sh.order.Len() > stmtShardCap {
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

// StatementCacheStats reports cache hits and misses since construction; both
// are zero when caching is disabled.
func (e *Executor) StatementCacheStats() (hits, misses uint64) {
	if e.stmts == nil {
		return 0, 0
	}
	return e.stmts.stats()
}
