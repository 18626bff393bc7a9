package sqlexec

import (
	"sync"

	"genedit/internal/sqldb"
)

// Allocation pooling for the executor hot path. Three reuse strategies:
//
//   - keyBufPool recycles the scratch byte buffers that composite-key
//     hashing sites (hash-join buckets, DISTINCT, GROUP BY, compound set
//     ops) fill and immediately convert to a map-key string. The buffer
//     itself never escapes — only the interned string does — so pooling is
//     safe and removes one grow-to-size allocation per hashing site per
//     query.
//   - queryScratch holds the intermediates of one Query call: WHERE
//     survivors (runCore), the GROUP BY partition — group ids, counts, the
//     key-to-group map and the row backing cut into groups (runGroupBy) —
//     the HAVING survivors, aggregate argument buffers
//     (collectAggregateArgs), window values, partitions and sort keys
//     (windowPlan.values), join key slots, match chains and the joined
//     relation — its row headers and the values of its rows (joinKeys,
//     hashJoin, emitJoin) — and the candidates of a non-constant IN list.
//     Joined rows die with their core: runCore copies what it keeps into
//     projected output rows before releasing the scratch. One scratch is
//     taken from scratchPool when Query starts, reaches every clause
//     through the scope chain, and goes back when Query returns.
//   - rowSlab chunk-allocates the value slots of projected output rows,
//     and only those. They DO escape (into Results and, through the
//     generation cache, into long-lived Records), so they are never pooled
//     or reused — the slab only amortizes allocation count by carving many
//     rows out of one backing array. A slab is per-query-scope state, never
//     shared across goroutines.
//
// Pooling rule of thumb, enforced by this split: scratch that dies inside
// one Query call may be pooled; anything reachable from a Result must come
// from ordinary (or slab) allocation.

// keyBufPool holds *[]byte scratch buffers for composite-key construction.
var keyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

func getKeyBuf() *[]byte { return keyBufPool.Get().(*[]byte) }

func putKeyBuf(b *[]byte) {
	// Oversized buffers (a query with huge string keys) are dropped rather
	// than pinned in the pool forever.
	if cap(*b) > 1<<16 {
		return
	}
	*b = (*b)[:0]
	keyBufPool.Put(b)
}

// arena hands out slices of one element type from a reusable buffer, in
// stack order: take bumps an offset, release returns everything taken since
// a mark. Slices come back zeroed (release clears what it frees, so stale
// rows and strings are not kept alive either) and at full capacity
// (three-index sliced), so appending past one can never write into a
// neighbour. When the buffer runs out a larger one replaces it; slices
// already handed out keep the old buffer alive for as long as they are
// used.
type arena[T any] struct {
	buf  []T
	used int
}

// arenaMark is an arena's state at one moment. size tells release whether
// the buffer was replaced since: then everything in the new buffer was taken
// after the mark.
type arenaMark struct{ used, size int }

func (a *arena[T]) take(n int) []T {
	if n > len(a.buf)-a.used {
		a.buf = make([]T, max(n, 2*len(a.buf), arenaMinSlots))
		a.used = 0
	}
	s := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

func (a *arena[T]) mark() arenaMark { return arenaMark{used: a.used, size: len(a.buf)} }

func (a *arena[T]) release(m arenaMark) {
	to := m.used
	if m.size != len(a.buf) {
		to = 0
	}
	clear(a.buf[to:a.used])
	a.used = to
}

// reset empties the arena for the next Query, dropping a buffer grown past
// scratchRetainSlots.
func (a *arena[T]) reset() {
	if len(a.buf) > scratchRetainSlots {
		*a = arena[T]{}
		return
	}
	clear(a.buf[:a.used])
	a.used = 0
}

// Arena sizing. An arena's first buffer holds arenaMinSlots elements. A
// scratch going back to the pool drops any arena (and the key map) grown
// past scratchRetainSlots — the counterpart of putKeyBuf's rule, so one
// large query does not pin its buffers in the pool. Over every statement the
// benchmark workloads execute at seed 1 (gold SQL and model-written SQL;
// tables of 8–144 rows) the largest buffers a scratch ended with were 576
// ints, 576 rows, 2,304 values (288 before joined rows moved into the
// scratch), 64 groups and 12 keys, so 8192 keeps every scratch those
// workloads grow — values with a 3.5x margin, the rest tenfold or more; at
// 48 bytes a Value the largest retained arena is 384 KB.
const (
	arenaMinSlots      = 64
	scratchRetainSlots = 8192
)

// queryScratch is the pooled per-Query scratch (see the header comment).
// Nothing taken from it may be reachable from a Result.
type queryScratch struct {
	root   scope // the Query's outermost scope; lives here so it costs no allocation
	rows   arena[sqldb.Row]
	vals   arena[sqldb.Value]
	ints   arena[int]
	groups arena[[]sqldb.Row]
	// ids maps a composite key to a dense id (GROUP BY groups, hash-join
	// buckets), valueIDs a single-column join key. One user at a time:
	// takeMap hands a map over and leaves nil behind, so a subquery
	// evaluated meanwhile makes its own.
	ids      map[string]int
	valueIDs map[sqldb.Value]int
}

// scratchMark is the state of all four arenas.
type scratchMark struct{ rows, vals, ints, groups arenaMark }

func (s *queryScratch) mark() scratchMark {
	return scratchMark{rows: s.rows.mark(), vals: s.vals.mark(), ints: s.ints.mark(), groups: s.groups.mark()}
}

// release frees everything taken since m. The caller guarantees none of it
// is used afterwards.
func (s *queryScratch) release(m scratchMark) {
	s.rows.release(m.rows)
	s.vals.release(m.vals)
	s.ints.release(m.ints)
	s.groups.release(m.groups)
}

func takeMap[K comparable](slot *map[K]int) map[K]int {
	m := *slot
	*slot = nil
	if m == nil {
		m = make(map[K]int)
	}
	return m
}

// putMap gives a map back to its slot, emptied; a nil one, or one grown
// past scratchRetainSlots, is dropped.
func putMap[K comparable](slot *map[K]int, m map[K]int) {
	if m == nil || len(m) > scratchRetainSlots {
		return
	}
	clear(m)
	*slot = m
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// getScratch returns an empty scratch whose root scope points back at it.
func getScratch() *queryScratch {
	s := scratchPool.Get().(*queryScratch)
	s.root = scope{scr: s}
	return s
}

func putScratch(s *queryScratch) {
	s.root = scope{}
	s.rows.reset()
	s.vals.reset()
	s.ints.reset()
	s.groups.reset()
	scratchPool.Put(s)
}

// Slab chunk sizing: chunks start small (a narrow query with a handful of
// output rows should not pin a big backing array) and double per refill, so
// a large scan converges on one allocation per rowSlabChunkMax slots. A
// caller that knows how many slots it is about to carve says so with
// expect, and the first chunk is exactly that (up to rowSlabChunkMax).
const (
	rowSlabChunkMin = 64
	rowSlabChunkMax = 4096
)

// rowSlab carves fixed-width rows out of chunked backing arrays. take
// returns a full-length, full-capacity slice (three-index sliced) so an
// accidental append can never bleed into a neighboring row.
type rowSlab struct {
	buf   []sqldb.Value
	chunk int
}

// expect allocates the first chunk for a caller about to carve slots value
// slots in all. It is called on an unused slab.
func (s *rowSlab) expect(slots int) {
	if n := min(slots, rowSlabChunkMax); n > 0 {
		s.buf = make([]sqldb.Value, n)
		s.chunk = n
	}
}

func (s *rowSlab) take(n int) sqldb.Row {
	if n <= 0 {
		return sqldb.Row{}
	}
	if len(s.buf) < n {
		switch {
		case s.chunk == 0:
			s.chunk = rowSlabChunkMin
		case s.chunk < rowSlabChunkMax:
			s.chunk = min(2*s.chunk, rowSlabChunkMax)
		}
		size := s.chunk
		if n > size {
			size = n
		}
		s.buf = make([]sqldb.Value, size)
	}
	r := s.buf[:n:n]
	s.buf = s.buf[n:]
	return sqldb.Row(r)
}
