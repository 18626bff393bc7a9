package embed

import "sync"

// memoCap bounds the process-wide memo. Distinct texts a whole run of each
// benchmark workload asks of it at seed 1: serve_cold 593, serve_scaled 725
// (32 tenants at 40x knowledge — only the examples a request retrieves are
// embedded through the memo, not the knowledge set), exhibits 885 (with the
// "w/o Decomposition" row's regrouped full-query examples), edit_loop 953
// (with the item texts the feedback operator compares an SME's feedback
// with). 4096 holds four times the largest. An entry stores about 25
// components — 240 bytes of indexes and values after size-class rounding —
// plus its key and a map slot holding the 64-byte Embedded, so a full memo
// is about 1.6 MB.
const memoCap = 4096

// shared is the one memo of the process. A vector is a function of its text
// alone, so engines, models and tenants all read the same entries; a memo
// per model would hold the same vectors once per model (the exhibits build
// twelve).
var shared = newMemo(memoCap)

// Memo returns Embed(s) — Text(s) in sparse form with its squared norm —
// from the process-wide memo, embedding s on first use. The embedding is
// shared by every caller. Use it for texts that recur — knowledge-set SQL,
// intent descriptions, schema descriptions, a request's question across
// operators; the memo is bounded, so one-off texts only cost the entries
// they displace.
func Memo(s string) Embedded { return shared.get(s) }

// memo is a bounded, concurrency-safe map from text to its embedding. It
// keeps two generations: lookups read cur, then prev (moving a hit into
// cur); when cur reaches half the capacity it becomes prev and the old prev
// is dropped. A text asked for at least once per generation therefore stays,
// one never asked for again is gone within two, and the two maps together
// never exceed the capacity. Eviction cannot change any caller's result —
// an evicted text is embedded again to the same bits.
type memo struct {
	mu        sync.RWMutex
	half      int
	cur, prev map[string]Embedded
}

func newMemo(capacity int) *memo {
	half := max(capacity/2, 1)
	return &memo{half: half, cur: make(map[string]Embedded)}
}

func (m *memo) get(s string) Embedded {
	m.mu.RLock()
	e, ok := m.cur[s]
	m.mu.RUnlock()
	if ok {
		return e
	}
	m.mu.Lock()
	if e, ok = m.cur[s]; !ok {
		if e, ok = m.prev[s]; ok {
			delete(m.prev, s)
			m.insert(s, e)
		}
	}
	m.mu.Unlock()
	if ok {
		return e
	}
	// Embed outside the lock. Two first callers of one text may both get
	// here; the first insert wins and both return its vector.
	e = Embed(s)
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.cur[s]; ok {
		return e
	}
	m.insert(s, e)
	return e
}

// insert adds an entry to cur, turning the generation over first when cur
// is full. The caller holds the write lock.
func (m *memo) insert(s string, e Embedded) {
	if len(m.cur) >= m.half {
		m.prev, m.cur = m.cur, make(map[string]Embedded)
	}
	m.cur[s] = e
}
