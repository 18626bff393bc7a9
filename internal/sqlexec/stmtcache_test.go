package sqlexec

import (
	"fmt"
	"sync"
	"testing"

	"genedit/internal/sqldb"
	"genedit/internal/sqlparse"
)

func cacheTestExecutor() *Executor {
	db := sqldb.NewDatabase("d")
	tbl := sqldb.NewTable("T", sqldb.Column{Name: "V", Type: "INTEGER"})
	tbl.MustAppend(sqldb.Int(1))
	db.AddTable(tbl)
	return New(db)
}

// TestStmtCacheDefaultIsSharded checks that the stripes actually share the
// load: a few hundred distinct statements land in every shard, so
// concurrent Query calls do not serialize on one mutex.
func TestStmtCacheDefaultIsSharded(t *testing.T) {
	e := cacheTestExecutor()
	for i := 0; i < 256; i++ {
		if _, err := e.Query(fmt.Sprintf("SELECT V FROM T WHERE V >= %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range e.stmts.shards {
		if n := e.stmts.shards[i].order.Len(); n == 0 {
			t.Fatalf("shard %d holds no statement after 256 distinct queries", i)
		}
	}
}

// TestStmtCacheShardedBoundsEntries fills the cache far past its bound and
// checks the total never exceeds it, while the hottest statements keep
// hitting.
func TestStmtCacheShardedBoundsEntries(t *testing.T) {
	const bound = stmtCacheShards * stmtShardCap
	e := cacheTestExecutor()
	hot := make([]string, 8)
	for i := range hot {
		hot[i] = fmt.Sprintf("SELECT V FROM T WHERE V >= %d", i)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 2*bound; i++ {
			if _, err := e.Query(fmt.Sprintf("SELECT V FROM T WHERE V >= %d AND V < %d", round, i+10)); err != nil {
				t.Fatal(err)
			}
		}
		// Hot statements run after the churn, so at round end they are the
		// most recent entries in their shards.
		for _, sql := range hot {
			if _, err := e.Query(sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := e.stmts.entries(); n > bound {
		t.Fatalf("cache holds %d entries, bound is %d", n, bound)
	}
	for i := range e.stmts.shards {
		if n := e.stmts.shards[i].order.Len(); n > stmtShardCap {
			t.Fatalf("shard %d holds %d entries, bound is %d", i, n, stmtShardCap)
		}
	}
	h0, _ := e.StatementCacheStats()
	for _, sql := range hot {
		if _, err := e.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if h, _ := e.StatementCacheStats(); h != h0+uint64(len(hot)) {
		t.Fatalf("hot statements missed after churn (hits %d -> %d, want +%d)", h0, h, len(hot))
	}
}

// TestSetStatementCacheSizeBoundsEntries checks the fixed per-shard size
// through Executor.Query: statements routed to one shard past its budget
// leave exactly stmtShardCap of them cached, the most recent one hits and
// the first, evicted one misses.
func TestSetStatementCacheSizeBoundsEntries(t *testing.T) {
	e := cacheTestExecutor()
	target := e.stmts.shardFor("SELECT V FROM T WHERE V >= 0")
	var stmts []string
	for i := 0; len(stmts) < stmtShardCap+4; i++ {
		if sql := fmt.Sprintf("SELECT V FROM T WHERE V >= %d", i); e.stmts.shardFor(sql) == target {
			stmts = append(stmts, sql)
		}
	}
	for _, sql := range stmts {
		if _, err := e.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if n := target.order.Len(); n != stmtShardCap {
		t.Fatalf("shard holds %d entries, want %d", n, stmtShardCap)
	}
	if n := e.stmts.entries(); n != stmtShardCap {
		t.Fatalf("cache holds %d entries, want %d", n, stmtShardCap)
	}
	h0, m0 := e.StatementCacheStats()
	if _, err := e.Query(stmts[len(stmts)-1]); err != nil {
		t.Fatal(err)
	}
	if h, _ := e.StatementCacheStats(); h != h0+1 {
		t.Fatalf("recent statement missed the cache (hits %d -> %d)", h0, h)
	}
	if _, err := e.Query(stmts[0]); err != nil {
		t.Fatal(err)
	}
	if _, m := e.StatementCacheStats(); m != m0+1 {
		t.Fatalf("evicted statement hit the cache (misses %d -> %d)", m0, m)
	}
}

// TestStatementCacheLRUEviction drives one shard past its budget with
// statements chosen to land in it: the least recently used entry goes, a
// touched one survives.
func TestStatementCacheLRUEviction(t *testing.T) {
	c := newStmtCache()
	target := c.shardFor("s0")
	var stmts []string
	for i := 0; len(stmts) < stmtShardCap+1; i++ {
		if sql := fmt.Sprintf("s%d", i); c.shardFor(sql) == target {
			stmts = append(stmts, sql)
		}
	}
	for _, sql := range stmts[:stmtShardCap] {
		c.put(sql, nil)
	}
	if _, ok := c.get(stmts[0]); !ok { // touch the oldest: stmts[1] becomes LRU
		t.Fatal("first statement should be cached")
	}
	c.put(stmts[stmtShardCap], nil) // evicts stmts[1]
	if _, ok := c.get(stmts[1]); ok {
		t.Error("least recently used statement should have been evicted")
	}
	if _, ok := c.get(stmts[0]); !ok {
		t.Error("touched statement should survive eviction")
	}
	if _, ok := c.get(stmts[stmtShardCap]); !ok {
		t.Error("newest statement should be cached")
	}
	if n := c.entries(); n != stmtShardCap {
		t.Errorf("cache holds %d entries, want %d", n, stmtShardCap)
	}
}

// TestStmtCacheConcurrentQuery hammers one shared executor from many
// goroutines mixing hits and misses; run under -race this checks the shard
// locking, and afterwards every result must still be correct.
func TestStmtCacheConcurrentQuery(t *testing.T) {
	db := sqldb.NewDatabase("d")
	tbl := sqldb.NewTable("T", sqldb.Column{Name: "V", Type: "INTEGER"})
	for i := 0; i < 10; i++ {
		tbl.MustAppend(sqldb.Int(int64(i)))
	}
	db.AddTable(tbl)
	e := New(db)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				want := (w + i) % 10
				res, err := e.Query(fmt.Sprintf("SELECT COUNT(*) FROM T WHERE V < %d", want))
				if err != nil {
					errs <- err
					return
				}
				if n, _ := res.Rows[0][0].AsInt(); int(n) != want {
					errs <- fmt.Errorf("worker %d: COUNT = %d, want %d", w, n, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses := e.StatementCacheStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("expected both hits and misses, got hits=%d misses=%d", hits, misses)
	}
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

// TestStmtCacheKeepsParseFailures checks that a statement that does not
// parse is cached too: the second Query of it is a cache hit and returns
// the same SyntaxError, kind and text, which the syntax-repair branch of
// the pipeline reads.
func TestStmtCacheKeepsParseFailures(t *testing.T) {
	e := cacheTestExecutor()
	const bad = "SELECT (V FROM T"
	_, first := e.Query(bad)
	hits, misses := e.StatementCacheStats()
	_, second := e.Query(bad)
	hits2, misses2 := e.StatementCacheStats()
	if hits2 != hits+1 || misses2 != misses {
		t.Errorf("second Query of a bad statement: hits %d -> %d, misses %d -> %d; want one hit", hits, hits2, misses, misses2)
	}
	for _, err := range []error{first, second} {
		if _, ok := err.(*sqlparse.SyntaxError); !ok {
			t.Fatalf("got %T %v, want a *sqlparse.SyntaxError", err, err)
		}
	}
	if first.Error() != second.Error() {
		t.Errorf("cached parse error %q, first %q", second, first)
	}
}
