// Package gencache implements the versioned generation cache of the serving
// layer: a bounded LRU of completed pipeline Records keyed by
// (database, knowledge version, normalized question, evidence), with
// singleflight coalescing so N concurrent identical requests run one
// generation and share its result.
//
// The knowledge version in the key is the invalidation contract. An
// approved SME merge hot-swaps a freshly built engine whose knowledge set
// carries a strictly greater version (every mutation bumps it, including
// checkpoint reverts), so every post-swap request computes a new key and
// misses — stale entries are never served and never need an explicit flush;
// the LRU simply ages them out.
//
// Two result classes are deliberately not cached:
//
//   - errors (cancellation, operator failures): they describe one request's
//     fate, not the question's answer, and must not poison later requests;
//   - traced requests are expected to bypass the cache entirely (the caller
//     checks, since the trace hook rides on its context): a per-operator
//     timing hook observes an actual pipeline run, and a cache hit runs no
//     operators.
//
// Records whose final SQL failed ARE cached: generation is deterministic
// for a fixed knowledge version, so the same question reproduces the same
// failure — re-running the pipeline to rediscover it is pure waste.
package gencache

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"genedit/internal/generr"
	"genedit/internal/pipeline"
	"genedit/internal/task"
)

// Cache is the versioned generation cache. It is safe for concurrent use.
// Cached *pipeline.Record values are shared across all callers and must be
// treated as read-only (the serving layer already documents Records as
// immutable traces).
type Cache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *entry
	items   map[entryKey]*list.Element
	flights map[entryKey]*flight
	// families maps a request's versionless identity to the newest cached
	// element for that (database, question, evidence) across knowledge
	// versions — the stale-serve index. Admission sheds consult it to
	// degrade gracefully: a previous version's answer beats a 503.
	families map[family]*list.Element

	hits        uint64 // LRU lookups that found a completed record
	misses      uint64 // lookups that started a new generation (flight leaders)
	coalesced   uint64 // lookups that joined an in-flight generation
	staleServed uint64 // PeekStale lookups that found a record
}

type entry struct {
	key entryKey
	rec *pipeline.Record
}

// flight is one in-progress generation; waiters block on done.
type flight struct {
	done chan struct{}
	rec  *pipeline.Record
	err  error
}

// New returns a cache bounded to capacity records. Capacity must be
// positive — the serving layer represents "cache disabled" as a nil *Cache,
// not a zero-capacity one.
func New(capacity int) *Cache {
	if capacity <= 0 {
		panic("gencache: capacity must be positive")
	}
	return &Cache{
		cap:      capacity,
		order:    list.New(),
		items:    make(map[entryKey]*list.Element, capacity),
		flights:  make(map[entryKey]*flight),
		families: make(map[family]*list.Element),
	}
}

// RequestKey is one request's cache identity as the caller knows it. The
// question is normalized (NormalizeQuestion) so trivially re-spelled
// duplicates of a hot question share an entry; evidence is taken verbatim.
type RequestKey struct {
	Database string
	Version  int
	Question string
	Evidence string
}

// family names a request across knowledge versions, the stale-serve lookup
// key; entryKey adds the version, naming one cache entry. Both are comparable
// structs of the components, so no spelling of one tuple can alias
// another and a lookup builds no string beyond the normalized question.
type family struct {
	database, question, evidence string
}

type entryKey struct {
	family
	version int
}

// entryKey normalizes the question once.
func (k RequestKey) entryKey() entryKey {
	return entryKey{family{k.Database, NormalizeQuestion(k.Question), k.Evidence}, k.Version}
}

// NormalizeQuestion lower-cases a question and collapses runs of whitespace
// to single spaces (leading/trailing runs dropped). Two questions with the
// same normal form are served the same cached record.
//
// This is deliberately task.QuestionKey: the simulated model resolves
// questions through the registry at exactly that granularity, so the cache
// key can never be coarser than the model's own question resolution. Making
// this function coarser than QuestionKey (e.g. stripping punctuation) would
// let two questions with different registered answers share one entry.
func NormalizeQuestion(q string) string {
	return task.QuestionKey(q)
}

// DoVersioned returns the cached record for key, joins an in-flight
// generation for it, or — as the flight leader — runs generate and
// publishes the result. The cached bool reports whether the record came
// from the cache or a shared flight rather than this caller's own generate
// run. A cached record is registered in the stale-serve family index under
// its knowledge version, making it eligible for PeekStale after the
// version moves on.
//
// Error contract: a leader's error is returned to the leader and to every
// waiter that joined its flight, and nothing is cached. The exception is a
// leader canceled by its own context: waiters whose contexts are still live
// retry (one becomes the next leader) instead of inheriting a cancellation
// that was never theirs. A waiter whose own ctx expires stops waiting and
// returns its cancellation; the flight keeps running for the others.
func (c *Cache) DoVersioned(ctx context.Context, k RequestKey, generate func() (*pipeline.Record, error)) (*pipeline.Record, bool, error) {
	return c.do(ctx, k.entryKey(), generate)
}

func (c *Cache) do(ctx context.Context, k entryKey, generate func() (*pipeline.Record, error)) (*pipeline.Record, bool, error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[k]; ok {
			c.hits++
			c.order.MoveToFront(el)
			rec := el.Value.(*entry).rec
			c.mu.Unlock()
			return rec, true, nil
		}
		if f, ok := c.flights[k]; ok {
			c.coalesced++
			c.mu.Unlock()
			select {
			case <-f.done:
				if f.err != nil {
					if errors.Is(f.err, generr.ErrCanceled) && ctx.Err() == nil {
						// Leader was canceled, we were not: retry (possibly
						// becoming the next leader). The retry iteration will
						// count this request again, so take back the
						// coalesced increment — each request contributes
						// exactly one counter tick.
						c.mu.Lock()
						c.coalesced--
						c.mu.Unlock()
						continue
					}
					return nil, false, f.err
				}
				return f.rec, true, nil
			case <-ctx.Done():
				return nil, false, generr.Canceled(ctx.Err())
			}
		}
		c.misses++
		f := &flight{done: make(chan struct{})}
		c.flights[k] = f
		c.mu.Unlock()

		// The flight must resolve even if generate panics (e.g. recovered
		// by an http handler above us): publish whatever state we have and
		// wake the waiters, then let the panic continue.
		completed := false
		defer func() {
			if !completed {
				if f.err == nil && f.rec == nil {
					f.err = errors.New("gencache: generation panicked")
				}
				c.finishFlight(k, f)
			}
		}()
		f.rec, f.err = generate()
		completed = true
		c.finishFlight(k, f)
		return f.rec, false, f.err
	}
}

// finishFlight retires a flight, caching successful records, and wakes its
// waiters.
func (c *Cache) finishFlight(k entryKey, f *flight) {
	c.mu.Lock()
	delete(c.flights, k)
	if f.err == nil && f.rec != nil {
		c.insertLocked(k, f.rec)
	}
	c.mu.Unlock()
	close(f.done)
}

// insertLocked adds (or refreshes) one completed record under c.mu,
// maintaining the family index: a family always points at its newest-version
// cached element, and an evicted element's family pointer is cleared so the
// index never outlives the LRU entries it references.
func (c *Cache) insertLocked(k entryKey, rec *pipeline.Record) {
	el, ok := c.items[k]
	if ok {
		el.Value.(*entry).rec = rec
		c.order.MoveToFront(el)
	} else {
		el = c.order.PushFront(&entry{key: k, rec: rec})
		c.items[k] = el
	}
	// Versions only move forward, so an older version overtaking a newer
	// one only happens in odd interleavings; the guard keeps the index
	// monotonic regardless.
	if cur, ok := c.families[k.family]; !ok || cur.Value.(*entry).key.version <= k.version {
		c.families[k.family] = el
	}
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		old := oldest.Value.(*entry).key
		delete(c.items, old)
		if c.families[old.family] == oldest {
			delete(c.families, old.family)
		}
	}
}

// PeekStale returns the newest cached record for the request's family,
// regardless of knowledge version — the graceful-degradation path for shed
// requests. The returned version says which knowledge version produced the
// record, so callers can tag the response as stale. A hit counts as a use:
// the entry is promoted in the LRU (hot questions keep their stale answer
// alive through an overload), and StaleServed is incremented.
func (c *Cache) PeekStale(key RequestKey) (*pipeline.Record, int, bool) {
	fam := key.entryKey().family
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.families[fam]
	if !ok {
		return nil, 0, false
	}
	e := el.Value.(*entry)
	c.order.MoveToFront(el)
	c.staleServed++
	return e.rec, e.key.version, true
}

// FailedRecords returns the cached records whose final SQL failed, newest
// (most recently used) first. The background failure miner scans these as
// its live-traffic signal: failed records are cached by contract (see the
// package comment), so the cache doubles as a bounded log of what live
// questions the current knowledge version cannot answer. The returned
// records are the shared cached values and must be treated as read-only.
func (c *Cache) FailedRecords() []*pipeline.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*pipeline.Record
	for el := c.order.Front(); el != nil; el = el.Next() {
		if rec := el.Value.(*entry).rec; rec != nil && !rec.OK {
			out = append(out, rec)
		}
	}
	return out
}

// Peek returns the completed record cached under key without joining or
// starting a flight and without promoting the entry in the LRU — a pure
// read for inspection paths (the failure miner's staleness check).
func (c *Cache) Peek(key RequestKey) (*pipeline.Record, bool) {
	k := key.entryKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		return el.Value.(*entry).rec, true
	}
	return nil, false
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Hits counts requests served straight from the LRU.
	Hits uint64 `json:"hits"`
	// Misses counts requests that ran a generation (flight leaders).
	Misses uint64 `json:"misses"`
	// Coalesced counts requests that joined another request's in-flight
	// generation instead of running their own.
	Coalesced uint64 `json:"coalesced"`
	// StaleServed counts PeekStale hits — shed requests degraded onto a
	// previous knowledge version's cached record instead of failing.
	StaleServed uint64 `json:"stale_served"`
	// Entries and Capacity describe the LRU's current fill and bound.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// Stats reports the cache's counters. Safe to call concurrently with
// DoVersioned.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Coalesced:   c.coalesced,
		StaleServed: c.staleServed,
		Entries:     c.order.Len(),
		Capacity:    c.cap,
	}
}
