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

// scoresOf is Index.Scores of a query text, read by position through each
// item's slot.
func scoresOf(ix *Index, query string) []float64 {
	qv := Text(query)
	bySlot := make([]float64, ix.Slots())
	ix.Scores(qv, Norm2(qv), bySlot)
	out := make([]float64, ix.Len())
	for p := range out {
		out[p] = bySlot[ix.Slot(p)]
	}
	return out
}

// TestIndexSearchRanksExactMatchFirst: of the scores a search reads, the
// item whose text is the query scores highest.
func TestIndexSearchRanksExactMatchFirst(t *testing.T) {
	ix := NewIndexSized(0, 0)
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
	ix := NewIndexSized(0, 0)
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

// vectorKeys numbers the texts addVector addresses its slots by.
var vectorKeys int

// addVector inserts or replaces an item with an embedding of any length (up
// to 256) or scale, stored sparse with its recomputed squared norm, in a
// slot of its own: the key it is addressed by is no text Add is given.
func addVector(ix *Index, id string, vec Vector) {
	vectorKeys++
	ix.put(id, ix.newSlot(sparse(vec, Norm2(vec)), fmt.Sprintf("\x00vector %d", vectorKeys)))
}

// checkIndex holds every item of ix to the dense vector it should score
// with: its score through its slot is Cosine's bits for several queries,
// no two slots are addressed by one text, and no slot is left that no item
// points at.
func checkIndex(t *testing.T, label string, ix *Index, dense map[string]Vector) {
	t.Helper()
	if ix.Len() != len(dense) {
		t.Fatalf("%s: Len = %d, want %d", label, ix.Len(), len(dense))
	}
	used := make([]bool, ix.Slots())
	for p := 0; p < ix.Len(); p++ {
		used[ix.Slot(p)] = true
	}
	for s, u := range used {
		if !u {
			t.Errorf("%s: slot %d of %d is scored but no item points at it", label, s, ix.Slots())
		}
	}
	for text, s := range ix.byText {
		if ix.texts[s] != text {
			t.Errorf("%s: text %q addresses slot %d, which holds %q", label, text, s, ix.texts[s])
		}
	}
	for _, q := range []string{"alpha beta", "gamma delta revenue", "revenue per viewer", ""} {
		scores := scoresOf(ix, q)
		qv := Text(q)
		for id, v := range dense {
			p, _ := ix.Pos(id)
			if want := Cosine(qv, v); math.Float64bits(scores[p]) != math.Float64bits(want) {
				t.Errorf("%s: q=%q: %s scores %v, want %v", label, q, id, scores[p], want)
			}
		}
	}
}

// TestIndexSharesSlotsByText: items with equal texts share one slot,
// embedded once, whichever way they arrive — Add, or AddShared from an
// index that holds the text in a slot of another number. Slots are
// addressed by text, not by vector: an equal vector stored under another
// key gets a slot of its own.
func TestIndexSharesSlotsByText(t *testing.T) {
	ix := NewIndexSized(0, 0)
	dense := map[string]Vector{}
	for i, text := range []string{"alpha beta", "gamma delta", "alpha beta", "alpha beta", "gamma delta", ""} {
		id := fmt.Sprintf("t-%d", i)
		ix.Add(id, text)
		dense[id] = Text(text)
	}
	addVector(ix, "v", Text("alpha beta"))
	dense["v"] = Text("alpha beta")
	if ix.Slots() != 4 {
		t.Fatalf("Slots = %d, want 4: three distinct texts and one vector stored by addVector", ix.Slots())
	}
	for _, same := range [][2]string{{"t-0", "t-2"}, {"t-0", "t-3"}, {"t-1", "t-4"}} {
		a, _ := ix.Pos(same[0])
		b, _ := ix.Pos(same[1])
		if ix.Slot(a) != ix.Slot(b) {
			t.Errorf("%s and %s have equal texts but slots %d and %d", same[0], same[1], ix.Slot(a), ix.Slot(b))
		}
	}
	checkIndex(t, "built by Add", ix, dense)

	// A second index that already holds "gamma delta" in its slot 0 takes
	// the other items from ix without embedding anything.
	child := NewIndexSized(0, 0)
	child.Add("c-0", "gamma delta")
	childDense := map[string]Vector{"c-0": Text("gamma delta")}
	for id := range dense {
		p, _ := ix.Pos(id)
		child.AddShared(id, ix, p)
		childDense[id] = dense[id]
	}
	if child.Slots() != 4 {
		t.Errorf("child Slots = %d, want 4", child.Slots())
	}
	for id := range dense {
		p, _ := ix.Pos(id)
		cp, _ := child.Pos(id)
		pv, cv := ix.Vectors()[ix.Slot(p)], child.Vectors()[child.Slot(cp)]
		if text := ix.texts[ix.Slot(p)]; text != "gamma delta" && len(pv.val) > 0 && &pv.val[0] != &cv.val[0] {
			t.Errorf("%s: AddShared embedded the vector again instead of sharing it", id)
		}
	}
	checkIndex(t, "built by AddShared", child, childDense)
}

// TestIndexReplaceKeepsSharedSlots: replacing an item whose slot other
// items share moves that item alone — to the slot of its new text, or to a
// new one — and leaves the others' scores unchanged; replacing the last
// item of a slot removes the slot, so Scores never scores a vector no item
// reads.
func TestIndexReplaceKeepsSharedSlots(t *testing.T) {
	ix := NewIndexSized(0, 0)
	dense := map[string]Vector{}
	add := func(id, text string) {
		ix.Add(id, text)
		dense[id] = Text(text)
	}
	add("a", "alpha beta")
	add("b", "alpha beta")
	add("c", "alpha beta")
	add("d", "gamma delta")
	add("e", "revenue per viewer")
	checkIndex(t, "initial", ix, dense)

	steps := []struct {
		label     string
		do        func()
		wantSlots int
	}{
		{"shared member to a new text", func() { add("b", "quarterly totals") }, 4},
		{"shared member to an existing text", func() { add("c", "gamma delta") }, 4},
		{"sole member to an existing text", func() { add("b", "revenue per viewer") }, 3},
		{"sole member to a new text", func() { add("a", "canada only") }, 3},
		{"unchanged text", func() { add("d", "gamma delta") }, 3},
		{"shared member to a vector", func() {
			addVector(ix, "c", Text("alpha beta"))
			dense["c"] = Text("alpha beta")
		}, 4},
		{"vector back to a text", func() { add("c", "gamma delta") }, 3},
		{"every member moved away", func() { add("d", "canada only"); add("c", "canada only") }, 2},
	}
	for _, st := range steps {
		st.do()
		if ix.Slots() != st.wantSlots {
			t.Errorf("%s: Slots = %d, want %d", st.label, ix.Slots(), st.wantSlots)
		}
		checkIndex(t, st.label, ix, dense)
	}
}

// TestSearchScoresMatchCosineExactly: Index.Scores writes, for every
// item's slot, the bits of Cosine over the item's dense vector — so
// retrieval (and therefore EX metrics) cannot drift. The inputs include
// duplicate texts under different IDs (their scores must tie exactly, so
// the selectors' ID tie-break decides), an item that embeds to the zero
// vector, scaled and zero vectors stored by addVector, a replaced ID, and the
// zero query. Scores writes exactly Slots() results and counts one search
// of Slots() candidates.
func TestSearchScoresMatchCosineExactly(t *testing.T) {
	ix := NewIndexSized(0, 0)
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
	addVector(ix, "scaled", scaled)
	dense["scaled"] = scaled
	addVector(ix, "zero", make(Vector, Dim))
	dense["zero"] = make(Vector, Dim)
	if ix.Len() != len(dense) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(dense))
	}

	const canary = 12345.678
	for _, q := range []string{"revenue per viewer for sports organisations", "identical tie text", "canada quarter total", "xyzzy", ""} {
		qv := Text(q)
		before := ix.Stats()
		n := ix.Slots()
		out := make([]float64, n+2)
		out[n], out[n+1] = canary, canary
		ix.Scores(qv, Norm2(qv), out)
		for id, v := range dense {
			p, _ := ix.Pos(id)
			got := out[ix.Slot(p)]
			if want := Cosine(qv, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("q=%q: score for %s = %v, want exact Cosine %v", q, id, got, want)
			}
		}
		if out[n] != canary || out[n+1] != canary {
			t.Errorf("q=%q: Scores wrote past its %d slots", q, n)
		}
		scores := scoresOf(ix, q)
		ta, _ := ix.Pos("tie-a")
		tb, _ := ix.Pos("tie-b")
		if math.Float64bits(scores[ta]) != math.Float64bits(scores[tb]) {
			t.Errorf("q=%q: identical texts score %v and %v", q, scores[ta], scores[tb])
		}
		after := ix.Stats()
		if after.Searches-before.Searches != 2 || after.CandidatesScanned-before.CandidatesScanned != 2*uint64(n) {
			t.Errorf("q=%q: counted %d searches of %d candidates, want 2 of %d each", q,
				after.Searches-before.Searches, after.CandidatesScanned-before.CandidatesScanned, n)
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
	fast, general := NewIndexSized(0, 0), NewIndexSized(0, 0)
	for i, s := range texts {
		id := fmt.Sprintf("t-%d", i)
		fast.Add(id, s)
		addVector(general, id, Text(s))
		// The cached norms must agree bitwise, not just approximately.
		fv, gv := fast.vecs[fast.Slot(i)], general.vecs[general.Slot(i)]
		if fv.Norm2 != gv.Norm2 {
			t.Fatalf("text %q: fast-path norm %v != general-path norm %v", s, fv.Norm2, gv.Norm2)
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
	ix := NewIndexSized(0, 0)
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
