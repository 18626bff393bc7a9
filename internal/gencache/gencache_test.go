package gencache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genedit/internal/generr"
	"genedit/internal/pipeline"
)

func record(sql string) *pipeline.Record {
	return &pipeline.Record{FinalSQL: sql, OK: true}
}

// rk is the request key of question q at version 1 of database "db".
func rk(q string) RequestKey { return RequestKey{Database: "db", Version: 1, Question: q} }

// TestKeyComponentsDoNotAlias: distinct tuples must be distinct entries
// however the components are spelled around one another.
func TestKeyComponentsDoNotAlias(t *testing.T) {
	keys := []RequestKey{
		{"db", 1, "q", ""},
		{"db", 1, "", "q"},
		{"db1", 1, "q", ""},
		{"db", 11, "q", ""},
		{"db", 1, "q 1", ""},
		{"d", 1, "bq", ""},
		{"db", 1, "q", "e"},
		{"db", 1, "q e", ""},
		{"db|1", 1, "q", ""},
		{"db", 1, "1|q", ""},
	}
	c := New(len(keys))
	ctx := context.Background()
	for i, k := range keys {
		sql := fmt.Sprintf("SELECT %d", i)
		rec, cached, err := c.DoVersioned(ctx, k, func() (*pipeline.Record, error) { return record(sql), nil })
		if err != nil || cached || rec.FinalSQL != sql {
			t.Errorf("%+v aliased an earlier key: rec=%v cached=%v err=%v", k, rec, cached, err)
		}
	}
	for i, k := range keys {
		if rec, ok := c.Peek(k); !ok || rec.FinalSQL != fmt.Sprintf("SELECT %d", i) {
			t.Errorf("%+v: Peek = (%v, %v), want its own record", k, rec, ok)
		}
	}
}

func TestKeyNormalizesQuestion(t *testing.T) {
	c := New(8)
	ctx := context.Background()
	gen := func() (*pipeline.Record, error) { return record("SELECT 1"), nil }
	k := RequestKey{Database: "db", Version: 3, Question: "  Top   5 ORGS\tby revenue ", Evidence: "ev"}
	c.DoVersioned(ctx, k, gen)
	if _, cached, _ := c.DoVersioned(ctx, RequestKey{Database: "db", Version: 3, Question: "top 5 orgs by revenue", Evidence: "ev"}, gen); !cached {
		t.Error("normalized questions should share an entry")
	}
	k.Version = 4
	if _, cached, _ := c.DoVersioned(ctx, k, gen); cached {
		t.Error("different knowledge versions must not share an entry")
	}
}

func TestDoCachesAndHits(t *testing.T) {
	c := New(8)
	calls := 0
	gen := func() (*pipeline.Record, error) {
		calls++
		return record("SELECT 1"), nil
	}
	ctx := context.Background()
	rec1, cached, err := c.DoVersioned(ctx, rk("k"), gen)
	if err != nil || cached || calls != 1 {
		t.Fatalf("first Do: rec=%v cached=%v err=%v calls=%d", rec1, cached, err, calls)
	}
	rec2, cached, err := c.DoVersioned(ctx, rk("k"), gen)
	if err != nil || !cached || calls != 1 {
		t.Fatalf("second Do: cached=%v err=%v calls=%d", cached, err, calls)
	}
	if rec1 != rec2 {
		t.Error("cache hit must return the identical shared record")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Coalesced != 0 || st.Entries != 1 || st.Capacity != 8 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDoDoesNotCacheErrors(t *testing.T) {
	c := New(8)
	calls := 0
	boom := errors.New("boom")
	gen := func() (*pipeline.Record, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return record("ok"), nil
	}
	ctx := context.Background()
	if _, _, err := c.DoVersioned(ctx, rk("k"), gen); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("error result was cached: %+v", st)
	}
	rec, cached, err := c.DoVersioned(ctx, rk("k"), gen)
	if err != nil || cached || rec.FinalSQL != "ok" || calls != 2 {
		t.Fatalf("retry after error: rec=%v cached=%v err=%v calls=%d", rec, cached, err, calls)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	ctx := context.Background()
	gen := func(sql string) func() (*pipeline.Record, error) {
		return func() (*pipeline.Record, error) { return record(sql), nil }
	}
	c.DoVersioned(ctx, rk("a"), gen("a"))
	c.DoVersioned(ctx, rk("b"), gen("b"))
	c.DoVersioned(ctx, rk("a"), gen("a")) // refresh a
	c.DoVersioned(ctx, rk("c"), gen("c")) // evicts b
	if _, cached, _ := c.DoVersioned(ctx, rk("a"), gen("a2")); !cached {
		t.Error("a should have survived (recently used)")
	}
	if rec, cached, _ := c.DoVersioned(ctx, rk("b"), gen("b2")); cached || rec.FinalSQL != "b2" {
		t.Errorf("b should have been evicted; cached=%v rec=%v", cached, rec)
	}
}

func TestCoalescingSharesOneGeneration(t *testing.T) {
	c := New(8)
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	gen := func() (*pipeline.Record, error) {
		calls.Add(1)
		close(started)
		<-release
		return record("shared"), nil
	}
	ctx := context.Background()

	leaderDone := make(chan *pipeline.Record, 1)
	go func() {
		rec, _, _ := c.DoVersioned(ctx, rk("k"), gen)
		leaderDone <- rec
	}()
	<-started

	const waiters = 8
	var wg sync.WaitGroup
	recs := make([]*pipeline.Record, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, cached, err := c.DoVersioned(ctx, rk("k"), func() (*pipeline.Record, error) {
				t.Error("waiter ran its own generation")
				return nil, errors.New("unreachable")
			})
			if err != nil || !cached {
				t.Errorf("waiter %d: cached=%v err=%v", i, cached, err)
			}
			recs[i] = rec
		}(i)
	}
	// Give the waiters time to join the flight before releasing the leader.
	for {
		if st := c.Stats(); st.Coalesced == waiters {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	leader := <-leaderDone

	if calls.Load() != 1 {
		t.Fatalf("generation ran %d times, want 1", calls.Load())
	}
	for i, rec := range recs {
		if rec != leader {
			t.Errorf("waiter %d got a different record than the leader", i)
		}
	}
	st := c.Stats()
	if st.Coalesced != waiters || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWaiterCancellationLeavesFlightRunning(t *testing.T) {
	c := New(8)
	started := make(chan struct{})
	release := make(chan struct{})
	gen := func() (*pipeline.Record, error) {
		close(started)
		<-release
		return record("late"), nil
	}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.DoVersioned(context.Background(), rk("k"), gen)
	}()
	<-started

	wctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.DoVersioned(wctx, rk("k"), nil) // nil generate: must never run
		waiterErr <- err
	}()
	for {
		if st := c.Stats(); st.Coalesced == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-waiterErr; !errors.Is(err, generr.ErrCanceled) {
		t.Fatalf("canceled waiter err = %v, want ErrCanceled", err)
	}
	close(release)
	<-leaderDone
	// The flight still completed and cached its record.
	rec, cached, err := c.DoVersioned(context.Background(), rk("k"), nil)
	if err != nil || !cached || rec.FinalSQL != "late" {
		t.Fatalf("flight result lost: rec=%v cached=%v err=%v", rec, cached, err)
	}
}

func TestCanceledLeaderDoesNotPoisonWaiters(t *testing.T) {
	c := New(8)
	started := make(chan struct{})
	release := make(chan struct{})
	leaderGen := func() (*pipeline.Record, error) {
		close(started)
		<-release
		return nil, generr.Canceled(context.Canceled)
	}
	go c.DoVersioned(context.Background(), rk("k"), leaderGen)
	<-started

	waiterDone := make(chan *pipeline.Record, 1)
	go func() {
		rec, _, err := c.DoVersioned(context.Background(), rk("k"), func() (*pipeline.Record, error) {
			return record("retried"), nil
		})
		if err != nil {
			t.Errorf("waiter err = %v", err)
		}
		waiterDone <- rec
	}()
	for {
		if st := c.Stats(); st.Coalesced >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	// The waiter must retry (becoming the new leader) rather than inherit
	// the leader's cancellation.
	if rec := <-waiterDone; rec == nil || rec.FinalSQL != "retried" {
		t.Fatalf("waiter record = %v, want retried generation", rec)
	}
}

func TestDoConcurrentMixedKeys(t *testing.T) {
	c := New(64)
	var calls atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%16)
				rec, _, err := c.DoVersioned(context.Background(), rk(key), func() (*pipeline.Record, error) {
					calls.Add(1)
					return record("sql-" + key), nil
				})
				if err != nil || rec.FinalSQL != "sql-"+key {
					t.Errorf("worker %d: rec=%v err=%v", w, rec, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// 16 distinct keys: at most a few generations each under heavy reuse.
	if n := calls.Load(); n < 16 || n > 64 {
		t.Errorf("generation calls = %d, want close to 16", n)
	}
	st := c.Stats()
	if st.Hits+st.Coalesced+st.Misses != 8*200 {
		t.Errorf("counter sum %d != request count %d (%+v)", st.Hits+st.Coalesced+st.Misses, 8*200, st)
	}
}

func TestNormalizeQuestion(t *testing.T) {
	cases := map[string]string{
		"  Top   5  ":        "top 5",
		"A\tB\nC":            "a b c",
		"":                   "",
		"   ":                "",
		"already normalized": "already normalized",
	}
	for in, want := range cases {
		if got := NormalizeQuestion(in); got != want {
			t.Errorf("NormalizeQuestion(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStaleFamilyIndex(t *testing.T) {
	c := New(8)
	ctx := context.Background()
	k1 := RequestKey{Database: "db", Version: 1, Question: "top orgs", Evidence: "ev"}

	// Nothing cached: no stale hit.
	if _, _, ok := c.PeekStale(k1); ok {
		t.Fatal("PeekStale hit on empty cache")
	}

	// Cache a v1 record; a v2 request's family finds it.
	if _, _, err := c.DoVersioned(ctx, k1, func() (*pipeline.Record, error) {
		return record("SELECT v1"), nil
	}); err != nil {
		t.Fatal(err)
	}
	k2 := k1
	k2.Version = 2
	rec, ver, ok := c.PeekStale(k2)
	if !ok || ver != 1 || rec.FinalSQL != "SELECT v1" {
		t.Fatalf("stale lookup = (%v, %d, %v), want v1 record", rec, ver, ok)
	}

	// Question normalization applies to the family key too.
	kNorm := RequestKey{Database: "db", Version: 9, Question: "  TOP   ORGS ", Evidence: "ev"}
	if _, ver, ok := c.PeekStale(kNorm); !ok || ver != 1 {
		t.Fatalf("normalized family lookup = (%d, %v), want hit at v1", ver, ok)
	}
	// Different evidence is a different family.
	kEv := k2
	kEv.Evidence = "other"
	if _, _, ok := c.PeekStale(kEv); ok {
		t.Fatal("different evidence must not share a family")
	}

	// After v2 generates, the family points at the newest version.
	if _, _, err := c.DoVersioned(ctx, k2, func() (*pipeline.Record, error) {
		return record("SELECT v2"), nil
	}); err != nil {
		t.Fatal(err)
	}
	k3 := k1
	k3.Version = 3
	rec, ver, ok = c.PeekStale(k3)
	if !ok || ver != 2 || rec.FinalSQL != "SELECT v2" {
		t.Fatalf("stale after v2 insert = (%q, %d, %v), want v2", rec.FinalSQL, ver, ok)
	}
	if st := c.Stats(); st.StaleServed != 3 {
		t.Fatalf("StaleServed = %d, want 3", st.StaleServed)
	}
}

func TestStaleIndexClearedOnEviction(t *testing.T) {
	c := New(2)
	ctx := context.Background()
	gen := func(sql string) func() (*pipeline.Record, error) {
		return func() (*pipeline.Record, error) { return record(sql), nil }
	}
	kA := RequestKey{Database: "db", Version: 1, Question: "a"}
	kB := RequestKey{Database: "db", Version: 1, Question: "b"}
	kC := RequestKey{Database: "db", Version: 1, Question: "c"}
	c.DoVersioned(ctx, kA, gen("a"))
	c.DoVersioned(ctx, kB, gen("b"))
	c.DoVersioned(ctx, kC, gen("c")) // evicts a
	if _, _, ok := c.PeekStale(RequestKey{Database: "db", Version: 5, Question: "a"}); ok {
		t.Fatal("family index must not survive its entry's eviction")
	}
	if _, ver, ok := c.PeekStale(RequestKey{Database: "db", Version: 5, Question: "b"}); !ok || ver != 1 {
		t.Fatalf("family b should still hit at v1, got (%d, %v)", ver, ok)
	}
	// A stale hit promotes: b is now MRU, so inserting d evicts c, not b.
	c.DoVersioned(ctx, RequestKey{Database: "db", Version: 1, Question: "d"}, gen("d"))
	if _, _, ok := c.PeekStale(RequestKey{Database: "db", Version: 5, Question: "c"}); ok {
		t.Fatal("c should have been evicted after b's stale-hit promotion")
	}
	if _, _, ok := c.PeekStale(RequestKey{Database: "db", Version: 5, Question: "b"}); !ok {
		t.Fatal("b should have survived via stale-hit promotion")
	}
}
