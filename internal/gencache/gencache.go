// Package gencache implements the versioned generation cache of the serving
// layer: a bounded LRU holding one completed pipeline Record per
// (database, normalized question, evidence), tagged with the knowledge
// version that produced it, with singleflight coalescing so N concurrent
// identical requests run one generation and share its result.
//
// The knowledge version is the invalidation contract. An approved SME merge
// hot-swaps a freshly built engine whose knowledge set carries a strictly
// greater version (every mutation bumps it, including checkpoint reverts),
// so a post-swap request misses the older record and its own replaces it —
// no explicit flush. A generation finishing on an older version never
// overwrites a newer entry, so each entry is its question's newest record.
//
// Errors (cancellation, operator failures) are deliberately not cached:
// they describe one request's fate, not the question's answer, and must not
// poison later requests. A trace hook on a request's context changes
// nothing here: the leader's generate runs with it, and a hit or a waiter
// runs no operators for it to time.
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
	items   map[question]*list.Element
	flights map[flightKey]*flight

	hits        uint64 // LRU lookups that found a completed record
	misses      uint64 // lookups that started a new generation (flight leaders)
	coalesced   uint64 // lookups that joined an in-flight generation
	staleServed uint64 // PeekStale lookups that found a record
}

// entry is a question's newest completed record, keyed by the version that
// produced it.
type entry struct {
	key flightKey
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
		cap:     capacity,
		order:   list.New(),
		items:   make(map[question]*list.Element, capacity),
		flights: make(map[flightKey]*flight),
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

// question names a request across knowledge versions, the LRU key;
// flightKey adds the version, naming one generation. Both are comparable
// structs of the components, so no spelling of one tuple can alias
// another and a lookup builds no string beyond the normalized question.
type question struct {
	database, question, evidence string
}

type flightKey struct {
	question
	version int
}

// flightKey normalizes the question once.
func (k RequestKey) flightKey() flightKey {
	return flightKey{question{k.Database, NormalizeQuestion(k.Question), k.Evidence}, k.Version}
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

// DoVersioned returns the question's cached record when it was produced at
// key's knowledge version, joins an in-flight generation for key, or — as
// the flight leader — runs generate and publishes the result. The cached
// bool reports whether the record came from the cache or a shared flight
// rather than this caller's own generate run. A published record replaces
// its question's entry unless that entry is from a newer version.
//
// Error contract: a leader's error is returned to the leader and to every
// waiter that joined its flight, and nothing is cached. The exception is a
// leader canceled by its own context: waiters whose contexts are still live
// retry (one becomes the next leader) instead of inheriting a cancellation
// that was never theirs. A waiter whose own ctx expires stops waiting and
// returns its cancellation; the flight keeps running for the others.
func (c *Cache) DoVersioned(ctx context.Context, k RequestKey, generate func() (*pipeline.Record, error)) (*pipeline.Record, bool, error) {
	return c.do(ctx, k.flightKey(), generate)
}

func (c *Cache) do(ctx context.Context, k flightKey, generate func() (*pipeline.Record, error)) (*pipeline.Record, bool, error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[k.question]; ok && el.Value.(*entry).key.version == k.version {
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
func (c *Cache) finishFlight(k flightKey, f *flight) {
	c.mu.Lock()
	delete(c.flights, k)
	if f.err == nil && f.rec != nil {
		c.insertLocked(k, f.rec)
	}
	c.mu.Unlock()
	close(f.done)
}

// insertLocked publishes a completed record under c.mu as its question's
// entry, unless that entry is from a newer version, and evicts the least
// recently used entry when over capacity.
func (c *Cache) insertLocked(k flightKey, rec *pipeline.Record) {
	if el, ok := c.items[k.question]; ok {
		if e := el.Value.(*entry); e.key.version <= k.version {
			e.key, e.rec = k, rec
			c.order.MoveToFront(el)
		}
		return
	}
	c.items[k.question] = c.order.PushFront(&entry{key: k, rec: rec})
	if c.order.Len() > c.cap {
		oldest := c.order.Remove(c.order.Back()).(*entry)
		delete(c.items, oldest.key.question)
	}
}

// PeekStale returns the question's cached record whatever its knowledge
// version (key.Version is ignored) — the graceful-degradation path for shed
// requests. The returned version says which knowledge version produced the
// record, so callers can tag the response as stale. A hit counts as a use:
// the entry is promoted in the LRU (hot questions keep their stale answer
// alive through an overload), and StaleServed is incremented.
func (c *Cache) PeekStale(key RequestKey) (*pipeline.Record, int, bool) {
	q := key.flightKey().question
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[q]
	if !ok {
		return nil, 0, false
	}
	c.order.MoveToFront(el)
	c.staleServed++
	e := el.Value.(*entry)
	return e.rec, e.key.version, true
}

// Failed returns database's cached records whose final SQL failed, least
// recently used first, without promoting them: each is its question's
// newest record, so this is the failure miner's signal. The records are the
// shared cached values and must be treated as read-only.
func (c *Cache) Failed(database string) []*pipeline.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*pipeline.Record
	for el := c.order.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*entry); e.key.database == database && !e.rec.OK {
			out = append(out, e.rec)
		}
	}
	return out
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
	// Entries and Capacity describe the LRU's current fill and bound: one
	// entry per distinct question.
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
