package embed

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Show me the Top-5 orgs (QoQFP)!")
	want := []string{"show", "me", "the", "top", "5", "orgs", "qoqfp"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTextDeterministic(t *testing.T) {
	a := Text("quarterly revenue per viewer")
	b := Text("quarterly revenue per viewer")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding is not deterministic")
		}
	}
}

func TestSelfSimilarityIsOne(t *testing.T) {
	s := "total revenue for canadian organizations in Q2 2023"
	if sim := Cosine(Text(s), Text(s)); math.Abs(sim-1.0) > 1e-9 {
		t.Errorf("self similarity = %v, want 1.0", sim)
	}
}

func TestRelatedTextsScoreHigherThanUnrelated(t *testing.T) {
	query := "revenue per viewer for sports organizations"
	related := "sum of revenue divided by viewers per organization"
	unrelated := "patient diagnosis codes by hospital ward"
	rel, unrel := Cosine(Text(query), Text(related)), Cosine(Text(query), Text(unrelated))
	if rel <= unrel {
		t.Errorf("related text (%v) should outscore unrelated (%v)", rel, unrel)
	}
}

func TestCosineBounds(t *testing.T) {
	f := func(a, b string) bool {
		sim := Cosine(Text(a), Text(b))
		return sim >= -1.0000001 && sim <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCosineEdgeCases(t *testing.T) {
	if got := Cosine(Vector{1, 0}, Vector{1, 0, 0}); got != 0 {
		t.Errorf("mismatched lengths should score 0, got %v", got)
	}
	if got := Cosine(Vector{}, Vector{}); got != 0 {
		t.Errorf("empty vectors should score 0, got %v", got)
	}
	if got := Cosine(Vector{0, 0}, Vector{1, 1}); got != 0 {
		t.Errorf("zero vector should score 0, got %v", got)
	}
}

func TestNormalizeUnitLength(t *testing.T) {
	v := Text("some sample text for normalization")
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if math.Abs(norm-1.0) > 1e-9 {
		t.Errorf("embedding norm = %v, want 1.0", math.Sqrt(norm))
	}
}

func TestIndexSearchRanksExactMatchFirst(t *testing.T) {
	ix := NewIndex()
	ix.Add("a", "count employees by department")
	ix.Add("b", "total revenue per region last year")
	ix.Add("c", "average salary of engineers")
	hits := ix.Search("total revenue per region last year", 2)
	if len(hits) != 2 {
		t.Fatalf("got %d hits, want 2", len(hits))
	}
	if hits[0].ID != "b" {
		t.Errorf("top hit = %s, want b", hits[0].ID)
	}
	if hits[0].Score < hits[1].Score {
		t.Error("hits not sorted by score")
	}
}

func TestIndexReplace(t *testing.T) {
	ix := NewIndex()
	ix.Add("x", "alpha beta")
	ix.Add("x", "gamma delta")
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after replace", ix.Len())
	}
	hits := ix.Search("gamma delta", 1)
	if hits[0].Score < 0.9 {
		t.Errorf("replaced vector not searchable: score %v", hits[0].Score)
	}
}

func TestIndexKBounds(t *testing.T) {
	ix := NewIndex()
	ix.Add("a", "one")
	ix.Add("b", "two")
	if got := len(ix.Search("one", 10)); got != 2 {
		t.Errorf("k larger than index returned %d hits, want 2", got)
	}
	if got := len(ix.Search("one", 0)); got != 0 {
		t.Errorf("k=0 returned %d hits, want 0", got)
	}
	if got := len(ix.Search("one", -1)); got != 2 {
		t.Errorf("k=-1 (all) returned %d hits, want 2", got)
	}
}

func TestIndexTieBreakDeterministic(t *testing.T) {
	ix := NewIndex()
	ix.Add("z", "identical text")
	ix.Add("a", "identical text")
	hits := ix.Search("identical text", 2)
	if hits[0].ID != "a" || hits[1].ID != "z" {
		t.Errorf("tie break not by ID: %v", hits)
	}
}

func TestSearchHeapMatchesBruteSort(t *testing.T) {
	// The bounded-heap top-k must return exactly the same IDs, order and
	// scores as the full-sort reference, including score ties broken by ID.
	ix := NewIndex()
	words := []string{"revenue", "viewer", "organisation", "quarter", "canada", "sports", "total", "sum"}
	for i := 0; i < 300; i++ {
		text := words[i%len(words)] + " " + words[(i*3+1)%len(words)] + " " + words[(i*7+2)%len(words)]
		ix.Add(fmt.Sprintf("item-%03d", i), text)
	}
	// Duplicate texts under different IDs force exact score ties.
	ix.Add("tie-b", "identical tie text")
	ix.Add("tie-a", "identical tie text")
	ix.Add("tie-c", "identical tie text")

	queries := []string{
		"revenue per viewer", "identical tie text", "canada quarter total",
		"completely unrelated words xyzzy", "",
	}
	for _, q := range queries {
		qv := Text(q)
		for _, k := range []int{0, 1, 3, 8, 50, 302, 500, -1} {
			heapHits := ix.SearchVector(qv, k)
			bruteHits := ix.SearchVectorBrute(qv, k)
			if len(heapHits) != len(bruteHits) {
				t.Fatalf("q=%q k=%d: heap %d hits, brute %d", q, k, len(heapHits), len(bruteHits))
			}
			for i := range heapHits {
				if heapHits[i].ID != bruteHits[i].ID || heapHits[i].Score != bruteHits[i].Score {
					t.Fatalf("q=%q k=%d hit %d: heap %+v, brute %+v",
						q, k, i, heapHits[i], bruteHits[i])
				}
			}
		}
	}
}

func TestSearchScoresMatchCosineExactly(t *testing.T) {
	// The cached-norm dot-product scoring must be bitwise identical to
	// Cosine so retrieval (and therefore EX metrics) cannot drift.
	ix := NewIndex()
	texts := map[string]string{
		"a": "total revenue by organisation",
		"b": "viewers per quarter in canada",
		"c": "sports holdings financial performance",
	}
	for id, text := range texts {
		ix.Add(id, text)
	}
	q := "revenue per viewer for sports organisations"
	qv := Text(q)
	for _, hit := range ix.SearchVector(qv, -1) {
		want := Cosine(qv, Text(texts[hit.ID]))
		if hit.Score != want {
			t.Errorf("score for %s = %v, want exact Cosine %v", hit.ID, hit.Score, want)
		}
	}
}

func TestTextMatchesHashFNVReference(t *testing.T) {
	// The inlined FNV-1a and continued bigram hashing must reproduce the
	// original hash/fnv-based embedding exactly.
	ref := func(s string) Vector {
		v := make(Vector, Dim)
		words := Tokenize(s)
		add := func(tok string, weight float64) {
			h := fnv.New64a()
			h.Write([]byte(tok))
			sum := h.Sum64()
			bucket := int(sum % Dim)
			sign := 1.0
			if (sum>>32)&1 == 1 {
				sign = -1.0
			}
			v[bucket] += sign * weight
		}
		for i, w := range words {
			add(w, 1.0)
			if i+1 < len(words) {
				add(w+"_"+words[i+1], 0.6)
			}
		}
		normalizeInPlace(v)
		return v
	}
	f := func(s string) bool {
		got, want := Text(s), ref(s)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTokenizeMatchesToLowerReference pins the per-rune lower-casing scan
// against the original strings.ToLower-then-filter tokenizer, including the
// non-ASCII runes that lower-case into [a-z] (Kelvin sign, dotted capital I).
func TestTokenizeMatchesToLowerReference(t *testing.T) {
	ref := func(s string) []string {
		var words []string
		var cur strings.Builder
		flush := func() {
			if cur.Len() > 0 {
				words = append(words, cur.String())
				cur.Reset()
			}
		}
		for _, r := range strings.ToLower(s) {
			if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
				cur.WriteRune(r)
			} else {
				flush()
			}
		}
		flush()
		return words
	}
	fixed := []string{
		"", "  ", "Hello, World!", "a-b_c d",
		"Kİ temperature", // Kelvin sign + dotted capital I
		"café Ångström 42", "\xff invalid \xfe utf8",
	}
	for _, s := range fixed {
		got, want := Tokenize(s), ref(s)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("Tokenize(%q) = %q, want %q", s, got, want)
		}
	}
	f := func(s string) bool {
		return fmt.Sprint(Tokenize(s)) == fmt.Sprint(ref(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTextAllocsDoNotScaleWithTokens: the streaming scan must not allocate
// per token — embedding a long text costs the same allocations (the vector
// plus a fixed closure overhead) as a short one.
func TestTextAllocsDoNotScaleWithTokens(t *testing.T) {
	short := "revenue"
	long := strings.Repeat("quarterly revenue per viewer across organisations in canada ", 40)
	allocsShort := testing.AllocsPerRun(50, func() { Text(short) })
	allocsLong := testing.AllocsPerRun(50, func() { Text(long) })
	if allocsLong > allocsShort {
		t.Errorf("Text allocations scale with input: short=%v long=%v", allocsShort, allocsLong)
	}
}
