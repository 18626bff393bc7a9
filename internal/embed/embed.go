// Package embed provides deterministic text embeddings and cosine-similarity
// retrieval. It substitutes for the hosted embedding service an enterprise
// deployment would call: feature-hashed bag-of-words with word bigrams,
// TF-weighted and L2-normalized, so similar texts land near each other and
// every run is reproducible.
package embed

import (
	"cmp"
	"math"
	"slices"
	"time"
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

func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

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

// DotBatch writes the dot product of q with each of vecs into out (which
// must be at least as long as vecs); a vector whose length differs from q's
// gets 0. Four candidates advance together, but every sum still accumulates
// its own products in index order, so out[i] has exactly the bits of the
// one-vector loop — interleaving only lets the four dependent add chains
// overlap in the pipeline instead of running back to back. The ANN layer
// ranks its centroids, the one dense thing an index keeps, through it.
func DotBatch(q Vector, vecs []Vector, out []float64) {
	out = out[:len(vecs)]
	n := len(q)
	i := 0
	for ; i+4 <= len(vecs); i += 4 {
		v0, v1, v2, v3 := vecs[i], vecs[i+1], vecs[i+2], vecs[i+3]
		if len(v0) != n || len(v1) != n || len(v2) != n || len(v3) != n {
			for j, v := range vecs[i : i+4] {
				out[i+j] = dot(q, v)
			}
			continue
		}
		var s0, s1, s2, s3 float64
		for j, x := range q {
			s0 += x * v0[j]
			s1 += x * v1[j]
			s2 += x * v2[j]
			s3 += x * v3[j]
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < len(vecs); i++ {
		out[i] = dot(q, vecs[i])
	}
}

// dot is DotBatch's one-vector form.
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

// Hit is one retrieval result.
type Hit struct {
	ID    string
	Score float64
}

// Index is a cosine top-k index. Vectors are stored sparse with their
// squared norms (Text vectors are already L2-normalized, so each is ~1),
// which lets search gather one dot product per candidate instead of a full
// cosine, and a bounded heap replaces the full sort when k is small. Scores
// are bitwise identical to Cosine over the dense vectors (see Embedded).
//
// By default every search scans all items. EnableANN + Build add a
// partitioned IVF layer on top (see ann.go) whose results stay
// order-identical to SearchVectorBrute while scanning sub-linearly many
// candidates on clustered data.
//
// Concurrency: mutation (Add, AddVector, AddEmbedded, EnableANN, Build)
// must not overlap search; any number of Search/SearchVector calls may then
// run concurrently.
type Index struct {
	ids  []string
	vecs []Embedded
	pos  map[string]int

	annCfg    ANNConfig
	annWanted bool
	ann       *annPartitions // nil until Build partitions the index
	stats     searchCounters
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{pos: make(map[string]int)}
}

// Add inserts or replaces an item by ID, embedding its text.
func (ix *Index) Add(id, text string) { ix.AddEmbedded(id, Embed(text)) }

// AddVector inserts or replaces an item with a caller-supplied embedding of
// any length (up to 256) or scale; it is stored sparse.
func (ix *Index) AddVector(id string, vec Vector) {
	ix.AddEmbedded(id, sparse(vec, Norm2(vec)))
}

// AddEmbedded inserts or replaces an item with an embedding already in
// sparse form — one this or another index holds, for instance. Embeddings
// are immutable, so indexes may share them.
func (ix *Index) AddEmbedded(id string, e Embedded) {
	if p, ok := ix.pos[id]; ok {
		ix.vecs[p] = e
		ix.annAbsorb(p, true)
		return
	}
	p := len(ix.ids)
	ix.pos[id] = p
	ix.ids = append(ix.ids, id)
	ix.vecs = append(ix.vecs, e)
	ix.annAbsorb(p, false)
}

// Len reports the number of items indexed.
func (ix *Index) Len() int { return len(ix.ids) }

// Pos returns the position of an ID: its insertion rank, the index into
// Vectors and into the position-addressed tables built beside the index.
func (ix *Index) Pos(id string) (int, bool) {
	p, ok := ix.pos[id]
	return p, ok
}

// Vectors returns the stored embeddings by position. The slice is the
// index's own storage — callers must not mutate it.
func (ix *Index) Vectors() []Embedded { return ix.vecs }

// Search returns the top-k items most similar to the query text, highest
// score first with ties broken by ID for determinism.
func (ix *Index) Search(query string, k int) []Hit {
	return ix.SearchVector(Text(query), k)
}

// compareHits is the public result order: score descending, ID ascending on
// ties. IDs are unique within an index, so the order is total.
func compareHits(a, b Hit) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// topHits keeps the k best hits offered to it in a binary min-heap under
// compareHits: the worst retained hit sits at h[0], so a full heap rejects
// most candidates with one comparison and replaces its root in O(log k).
type topHits struct {
	h []Hit
	k int
}

func newTopHits(k int) topHits { return topHits{h: make([]Hit, 0, k), k: k} }

func (t *topHits) full() bool { return len(t.h) == t.k }

// worst is the kth-best hit so far; valid once the heap is non-empty.
func (t *topHits) worst() Hit { return t.h[0] }

func (t *topHits) offer(hit Hit) {
	h := t.h
	if len(h) < t.k {
		h = append(h, hit)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if compareHits(h[i], h[parent]) <= 0 {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
		t.h = h
		return
	}
	if compareHits(hit, h[0]) >= 0 {
		return
	}
	h[0] = hit
	for i := 0; ; {
		worst := i
		if l := 2*i + 1; l < len(h) && compareHits(h[l], h[worst]) > 0 {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && compareHits(h[r], h[worst]) > 0 {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// sorted orders the retained hits into the public result order, in place.
func (t *topHits) sorted() []Hit {
	slices.SortFunc(t.h, compareHits)
	return t.h
}

// scanChunk is how many candidates the index scans score per CosineBatch
// or CosineGather call: their scores sit in a fixed-size stack buffer, so a
// search allocates nothing per candidate.
const scanChunk = 64

// SearchVector is Search with a precomputed query vector. For small k it
// keeps a bounded heap of the best candidates instead of sorting the whole
// index; results are identical to the full sort (IDs are unique, so the
// score-then-ID order is total). When an ANN partitioning is built (see
// ann.go) the sweep is restricted to partitions whose cone bound can still
// reach the top-k — with results provably identical to the full scan.
func (ix *Index) SearchVector(q Vector, k int) []Hit {
	start := time.Now()
	if k < 0 || k >= len(ix.ids) {
		hits := ix.SearchVectorBrute(q, k)
		ix.stats.record(start, len(ix.ids), 0, false, false)
		return hits
	}
	if k == 0 {
		ix.stats.record(start, 0, 0, false, false)
		return []Hit{}
	}
	qNorm2 := Norm2(q)
	if ix.ann != nil && qNorm2 != 0 {
		hits, scanned, probed, full := ix.searchANN(q, qNorm2, k)
		ix.stats.record(start, scanned, probed, true, full)
		return hits
	}
	top := newTopHits(k)
	var scores [scanChunk]float64
	for lo := 0; lo < len(ix.ids); lo += scanChunk {
		hi := min(lo+scanChunk, len(ix.ids))
		CosineBatch(q, qNorm2, ix.vecs[lo:hi], scores[:hi-lo])
		for i := lo; i < hi; i++ {
			top.offer(Hit{ID: ix.ids[i], Score: scores[i-lo]})
		}
	}
	ix.stats.record(start, len(ix.ids), 0, false, false)
	return top.sorted()
}

// SearchVectorBrute is the full-sort reference implementation of
// SearchVector; parity tests and benchmarks compare against it.
func (ix *Index) SearchVectorBrute(q Vector, k int) []Hit {
	scores := make([]float64, len(ix.ids))
	CosineBatch(q, Norm2(q), ix.vecs, scores)
	hits := make([]Hit, len(ix.ids))
	for i, id := range ix.ids {
		hits[i] = Hit{ID: id, Score: scores[i]}
	}
	slices.SortFunc(hits, compareHits)
	if k >= 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}
