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

// scoresOf is Index.Scores of a query text, by position.
func scoresOf(ix *Index, query string) []float64 {
	qv := Text(query)
	out := make([]float64, ix.Len())
	ix.Scores(qv, Norm2(qv), out)
	return out
}

// TestIndexSearchRanksExactMatchFirst: of the scores a search reads, the
// item whose text is the query scores highest.
func TestIndexSearchRanksExactMatchFirst(t *testing.T) {
	ix := NewIndex()
	ix.Add("a", "count employees by department")
	ix.Add("b", "total revenue per region last year")
	ix.Add("c", "average salary of engineers")
	scores := scoresOf(ix, "total revenue per region last year")
	best, _ := ix.Pos("b")
	for p, s := range scores {
		if p != best && s >= scores[best] {
			t.Errorf("position %d scores %v, not below the exact match's %v", p, s, scores[best])
		}
	}
}

func TestIndexReplace(t *testing.T) {
	ix := NewIndex()
	ix.Add("x", "alpha beta")
	ix.Add("x", "gamma delta")
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after replace", ix.Len())
	}
	if p, ok := ix.Pos("x"); !ok || p != 0 {
		t.Fatalf("Pos(x) = %d, %v after replace, want 0, true", p, ok)
	}
	if score := scoresOf(ix, "gamma delta")[0]; score < 0.9 {
		t.Errorf("replaced vector not scored: score %v", score)
	}
}

// TestSearchScoresMatchCosineExactly: Index.Scores writes, at every
// position, the bits of Cosine over the dense vectors — so retrieval (and
// therefore EX metrics) cannot drift. The inputs include duplicate texts
// under different IDs (their scores must tie exactly, so the selectors'
// ID tie-break decides), an item that embeds to the zero vector, scaled and
// zero caller-supplied vectors, a replaced ID, and the zero query. Scores
// writes exactly Len() results and counts one search of Len() candidates.
func TestSearchScoresMatchCosineExactly(t *testing.T) {
	ix := NewIndex()
	dense := map[string]Vector{}
	add := func(id, text string) {
		ix.Add(id, text)
		dense[id] = Text(text)
	}
	add("a", "total revenue by organisation")
	add("b", "viewers per quarter in canada")
	add("c", "sports holdings financial performance")
	words := []string{"revenue", "viewer", "organisation", "quarter", "canada", "sports", "total", "sum"}
	for i := 0; i < 300; i++ {
		add(fmt.Sprintf("item-%03d", i), words[i%len(words)]+" "+words[(i*3+1)%len(words)]+" "+words[(i*7+2)%len(words)])
	}
	add("tie-b", "identical tie text")
	add("tie-a", "identical tie text")
	add("empty", "  ")
	add("b", "quarter over quarter viewers") // replaced in place
	scaled := Text("revenue per viewer")
	for i := range scaled {
		scaled[i] *= 3.5
	}
	ix.AddVector("scaled", scaled)
	dense["scaled"] = scaled
	ix.AddVector("zero", make(Vector, Dim))
	dense["zero"] = make(Vector, Dim)
	if ix.Len() != len(dense) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(dense))
	}

	const canary = 12345.678
	for _, q := range []string{"revenue per viewer for sports organisations", "identical tie text", "canada quarter total", "xyzzy", ""} {
		qv := Text(q)
		before := ix.Stats()
		out := make([]float64, ix.Len()+2)
		out[ix.Len()], out[ix.Len()+1] = canary, canary
		ix.Scores(qv, Norm2(qv), out)
		for id, v := range dense {
			p, _ := ix.Pos(id)
			if want := Cosine(qv, v); math.Float64bits(out[p]) != math.Float64bits(want) {
				t.Errorf("q=%q: score for %s = %v, want exact Cosine %v", q, id, out[p], want)
			}
		}
		if out[ix.Len()] != canary || out[ix.Len()+1] != canary {
			t.Errorf("q=%q: Scores wrote past its %d items", q, ix.Len())
		}
		ta, _ := ix.Pos("tie-a")
		tb, _ := ix.Pos("tie-b")
		if math.Float64bits(out[ta]) != math.Float64bits(out[tb]) {
			t.Errorf("q=%q: identical texts score %v and %v", q, out[ta], out[tb])
		}
		after := ix.Stats()
		if after.Searches-before.Searches != 1 || after.CandidatesScanned-before.CandidatesScanned != uint64(ix.Len()) {
			t.Errorf("q=%q: counted %d searches of %d candidates, want 1 of %d", q,
				after.Searches-before.Searches, after.CandidatesScanned-before.CandidatesScanned, ix.Len())
		}
		if after.ANNSearches != 0 || after.PartitionsProbed != 0 || after.FullSweeps != 0 {
			t.Errorf("q=%q: partition counters moved: %+v", q, after)
		}
	}
}

// TestAddNormMatchesGeneralPath guards the Add fast path (Text vectors
// arrive with their norm precomputed): the cached squared norm — and
// therefore every score — must be bitwise identical to the general
// recompute-the-norm path.
func TestAddNormMatchesGeneralPath(t *testing.T) {
	texts := []string{
		"total revenue per store in Canada for 2023",
		"QoQFP per sports organisation",
		"",
		"    ",
		"UPPER lower MiXeD 123 tokens tokens tokens",
	}
	fast, general := NewIndex(), NewIndex()
	for i, s := range texts {
		id := fmt.Sprintf("t-%d", i)
		fast.Add(id, s)
		general.AddVector(id, Text(s))
		// The cached norms must agree bitwise, not just approximately.
		if fast.vecs[i].Norm2 != general.vecs[i].Norm2 {
			t.Fatalf("text %q: fast-path norm %v != general-path norm %v",
				s, fast.vecs[i].Norm2, general.vecs[i].Norm2)
		}
		var want float64
		for _, x := range Text(s) {
			want += x * x
		}
		if n2 := Embed(s).Norm2; n2 != want {
			t.Fatalf("text %q: Embed norm %v != recomputed %v", s, n2, want)
		}
	}
	const q = "revenue per organisation"
	got, want := scoresOf(fast, q), scoresOf(general, q)
	for p := range got {
		if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
			t.Errorf("position %d: fast-path score %v, general-path score %v", p, got[p], want[p])
		}
	}
}

// BenchmarkIndexAdd guards the Add fast path: embedding plus insertion with
// the norm fused into normalization (no second pass over the vector).
func BenchmarkIndexAdd(b *testing.B) {
	texts := make([]string, 64)
	for i := range texts {
		texts[i] = fmt.Sprintf("top %d stores by total net sales in district %d for 2023", i, i%7)
	}
	b.ReportAllocs()
	ix := NewIndex()
	for i := 0; i < b.N; i++ {
		ix.Add(fmt.Sprintf("id-%d", i), texts[i%len(texts)])
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
