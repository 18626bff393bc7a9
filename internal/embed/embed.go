// Package embed provides deterministic text embeddings and cosine-similarity
// retrieval. It substitutes for the hosted embedding service an enterprise
// deployment would call: feature-hashed bag-of-words with word bigrams,
// TF-weighted and L2-normalized, so similar texts land near each other and
// every run is reproducible.
package embed

import (
	"math"
	"slices"
	"sync/atomic"
	"unicode"
)

// Dim is the embedding dimensionality.
const Dim = 192

// Vector is a dense embedding.
type Vector []float64

// FNV-1a, inlined so the hot tokenization loop allocates no hasher and
// bigram hashes continue from the first word's state instead of re-hashing a
// concatenated string. Values are identical to hash/fnv's New64a.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// lowerAlnum lower-cases one rune and reports whether the result is a kept
// token rune ([a-z0-9]). Every kept rune is a single ASCII byte, which is
// what lets Text hash tokens incrementally without building strings.
func lowerAlnum(r rune) (byte, bool) {
	if r >= 'A' && r <= 'Z' {
		return byte(r + ('a' - 'A')), true
	}
	if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
		return byte(r), true
	}
	if r >= 0x80 {
		// Non-ASCII uppercase letters can lower-case into the kept ASCII
		// range (e.g. the Kelvin sign U+212A -> 'k'); mirror the previous
		// strings.ToLower-based tokenizer exactly.
		if lr := unicode.ToLower(r); lr >= 'a' && lr <= 'z' {
			return byte(lr), true
		}
	}
	return 0, false
}

// Text embeds a string. Tokenization lower-cases and splits on
// non-alphanumeric runes; unigrams and adjacent-word bigrams are hashed into
// Dim buckets with signed hashing to reduce collision bias.
//
// The token stream is consumed as it is scanned — no token slice or lowered
// copy of s is materialized. Two running FNV-1a states track the current
// word: one from the hash offset (the unigram) and one continued from the
// previous word through a "_" byte (the bigram), so each feature hash is
// bitwise identical to hashing the materialized token strings. Bucket
// updates happen in the same order as the token-slice implementation
// (unigram w0, bigram w0_w1, unigram w1, ...), so the accumulated — and
// then normalized — vectors are bit-identical to the reference.
func Text(s string) Vector {
	v := make(Vector, Dim)
	embedInto(v, s)
	return v
}

// Embed returns Text(s) in sparse form with its squared norm, without
// going through the process-wide memo: for texts embedded once, such as a
// knowledge set's items when an engine is built. The dense vector is
// accumulated on the stack, so the two slices of the result are all it
// allocates.
func Embed(s string) Embedded {
	var buf [Dim]float64
	n2 := embedInto(buf[:], s)
	return sparse(buf[:], n2)
}

// embedInto accumulates the embedding of s into v, which must be Dim long
// and zero, and normalizes it. It returns the squared L2 norm of the
// result, accumulated inside the normalization pass in index order — the
// same operations, in the same order, as Norm2 over the result, so a cached
// norm is bitwise identical to recomputing it.
func embedInto(v Vector, s string) float64 {
	add := func(sum uint64, weight float64) {
		bucket := int(sum % Dim)
		sign := 1.0
		if (sum>>32)&1 == 1 {
			sign = -1.0
		}
		v[bucket] += sign * weight
	}
	var (
		h        uint64 // FNV state of the current word
		hBig     uint64 // FNV state of prevWord+"_"+current word so far
		inWord   bool
		havePrev bool
		prevH    uint64 // completed FNV state of the previous word
	)
	endWord := func() {
		if !inWord {
			return
		}
		if havePrev {
			add(hBig, 0.6) // bigram(prev, current) lands before unigram(current)
		}
		add(h, 1.0)
		prevH = h
		havePrev = true
		inWord = false
	}
	for _, r := range s {
		c, ok := lowerAlnum(r)
		if !ok {
			endWord()
			continue
		}
		if !inWord {
			inWord = true
			h = fnvOffset64
			if havePrev {
				// Continue hashing "prev_current" from prev's state: same
				// sum as hashing the concatenated token, no string built.
				hBig = (prevH ^ '_') * fnvPrime64
			}
		}
		h = (h ^ uint64(c)) * fnvPrime64
		if havePrev {
			hBig = (hBig ^ uint64(c)) * fnvPrime64
		}
	}
	endWord()
	return normalizeInPlace(v)
}

// Tokenize lower-cases and splits text into alphanumeric word tokens.
func Tokenize(s string) []string {
	var words []string
	// All kept runes are single ASCII bytes, so one reusable byte buffer
	// replaces the per-token strings.Builder (and the lowered copy of s).
	var cur []byte
	flush := func() {
		if len(cur) > 0 {
			words = append(words, string(cur))
			cur = cur[:0]
		}
	}
	for _, r := range s {
		if c, ok := lowerAlnum(r); ok {
			cur = append(cur, c)
		} else {
			flush()
		}
	}
	flush()
	return words
}

// normalizeInPlace scales v to unit length in place (zero vectors are left
// unchanged). It returns the squared norm of the *scaled* vector,
// accumulated in index order over the stored values, so the caller can cache
// it without a second pass (0 for zero vectors, matching what that pass
// would compute).
func normalizeInPlace(v Vector) float64 {
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if norm == 0 {
		return 0
	}
	norm = math.Sqrt(norm)
	var n2 float64
	for i, x := range v {
		v[i] = x / norm
		n2 += v[i] * v[i]
	}
	return n2
}

// Cosine returns the cosine similarity of two vectors (0 when either is
// zero or lengths differ).
func Cosine(a, b Vector) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Norm2 returns the squared L2 norm of v accumulated in index order: the
// bits Cosine computes for either operand and Index caches per item.
func Norm2(v Vector) float64 {
	var n2 float64
	for _, x := range v {
		n2 += x * x
	}
	return n2
}

// dot is the dense dot product (0 on a length mismatch), summed in index
// order: the loop every sparse kernel reproduces bit for bit.
func dot(a, b Vector) float64 {
	if len(a) != len(b) {
		return 0
	}
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// Index is the storage of one retrieval index, content-addressed: each
// distinct text is embedded once, into one vector slot, and each item — at
// the position its ID was first added — points at the slot of its text.
// Vectors are stored sparse with their squared norms (Text vectors are
// already L2-normalized, so each is ~1). A query log repeats its analyses,
// so the fragments decomposed from it repeat too: at 40x knowledge a
// tenant's 957 examples hold 111 distinct texts. Scores is the index's one
// read path: a single pass that scores every slot against a query, bitwise
// identical to Cosine over the dense vectors (see Embedded); an item's
// score is its slot's. Equal texts embed to equal bits, so sharing a slot
// cannot change a score. The pipeline's selectors rank their global fan-out
// and re-rank their candidates from that one array, so an index is scored
// once per request.
//
// Concurrency: mutation (Add, AddShared) must not overlap Scores; any
// number of Scores calls may then run concurrently.
type Index struct {
	vecs   []Embedded     // by slot
	texts  []string       // by slot: the text embedded there
	byText map[string]int // text → slot
	slot   []int          // by position: the item's slot
	pos    map[string]int // ID → position
	stats  searchCounters
}

// NewIndexSized returns an empty index with room for the given numbers of
// items and distinct texts, so that filling it does not grow its tables
// step by step.
func NewIndexSized(items, texts int) *Index {
	return &Index{
		vecs:   make([]Embedded, 0, texts),
		texts:  make([]string, 0, texts),
		byText: make(map[string]int, texts),
		slot:   make([]int, 0, items),
		pos:    make(map[string]int, items),
	}
}

// Add inserts or replaces an item by ID. Its text is embedded only if no
// item of the index has that text already; otherwise the item shares that
// item's slot.
func (ix *Index) Add(id, text string) {
	s, ok := ix.byText[text]
	if !ok {
		s = ix.newSlot(Embed(text), text)
	}
	ix.put(id, s)
}

// AddShared inserts or replaces an item by ID with the text and embedding
// of the item at position p of another index — the one an engine is
// rebuilt from, for instance. Nothing is embedded: the item takes the slot
// of its text if ix has one and shares from's stored vector otherwise.
// Embeddings are immutable, so indexes may share them.
func (ix *Index) AddShared(id string, from *Index, p int) {
	fs := from.slot[p]
	text := from.texts[fs]
	s, ok := ix.byText[text]
	if !ok {
		s = ix.newSlot(from.vecs[fs], text)
	}
	ix.put(id, s)
}

// newSlot stores e, the embedding of text, as a new slot.
func (ix *Index) newSlot(e Embedded, text string) int {
	s := len(ix.vecs)
	ix.vecs = append(ix.vecs, e)
	ix.texts = append(ix.texts, text)
	ix.byText[text] = s
	return s
}

// put points item id at slot s, adding the item if the ID is new. A
// replaced item leaves its old slot to the items still sharing it, and the
// slot goes once none is left.
func (ix *Index) put(id string, s int) {
	p, ok := ix.pos[id]
	if !ok {
		ix.pos[id] = len(ix.slot)
		ix.slot = append(ix.slot, s)
		return
	}
	old := ix.slot[p]
	if old == s {
		return
	}
	ix.slot[p] = s
	ix.release(old)
}

// release removes slot s if no item points at it any more, moving the last
// slot into its place so that Scores scores no vector that no item reads.
// It walks every position: replacing an item is rare, building an index
// never does it.
func (ix *Index) release(s int) {
	if slices.Contains(ix.slot, s) {
		return
	}
	delete(ix.byText, ix.texts[s])
	last := len(ix.vecs) - 1
	if s != last {
		ix.byText[ix.texts[last]] = s
		ix.vecs[s], ix.texts[s] = ix.vecs[last], ix.texts[last]
		for p, at := range ix.slot {
			if at == last {
				ix.slot[p] = s
			}
		}
	}
	ix.vecs[last], ix.texts[last] = Embedded{}, ""
	ix.vecs, ix.texts = ix.vecs[:last], ix.texts[:last]
}

// Len reports the number of items indexed.
func (ix *Index) Len() int { return len(ix.slot) }

// Slots reports the number of distinct vectors stored: the length of
// Vectors and of what Scores writes.
func (ix *Index) Slots() int { return len(ix.vecs) }

// Pos returns the position of an ID: its insertion rank, the index into
// the position-addressed tables built beside the index.
func (ix *Index) Pos(id string) (int, bool) {
	p, ok := ix.pos[id]
	return p, ok
}

// Slot returns the vector slot of the item at position p: the index into
// Vectors and Scores.
func (ix *Index) Slot(p int) int { return ix.slot[p] }

// Vectors returns the stored embeddings by slot. The slice is the index's
// own storage — callers must not mutate it.
func (ix *Index) Vectors() []Embedded { return ix.vecs }

// Scores writes Cosine(q, v) into out[s] for the vector v of every slot s,
// bit for bit, given qNorm2 = Norm2(q); out must be at least Slots() long,
// and the item at position p scores out[Slot(p)]. It is one CosineBatch
// over Vectors, and it counts one search of Slots() candidates in the
// index's counters.
func (ix *Index) Scores(q Vector, qNorm2 float64, out []float64) {
	CosineBatch(q, qNorm2, ix.vecs, out[:len(ix.vecs)])
	ix.stats.searches.Add(1)
	ix.stats.scanned.Add(uint64(len(ix.vecs)))
}

// SearchStats is a snapshot of an index's retrieval counters.
type SearchStats struct {
	// Searches counts Scores calls.
	Searches uint64
	// ANNSearches is always 0. It, PartitionsProbed and FullSweeps counted
	// the work of a partitioned (IVF) layer the index no longer has; they
	// stay because the repo benchmark's layer report reads them.
	ANNSearches uint64
	// CandidatesScanned is the total number of distinct stored vectors
	// scored: Searches × Slots() while the index does not change.
	CandidatesScanned uint64
	// PartitionsProbed is always 0 (see ANNSearches).
	PartitionsProbed uint64
	// FullSweeps is always 0 (see ANNSearches).
	FullSweeps uint64
}

// searchCounters is the atomic backing store for SearchStats.
type searchCounters struct {
	searches atomic.Uint64
	scanned  atomic.Uint64
}

// Stats returns a snapshot of the index's retrieval counters. Safe to call
// concurrently with Scores.
func (ix *Index) Stats() SearchStats {
	return SearchStats{
		Searches:          ix.stats.searches.Load(),
		CandidatesScanned: ix.stats.scanned.Load(),
	}
}
