package embed

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// sameEmbedding fails unless e is, bit for bit, what Text and Norm2 give.
func sameEmbedding(t *testing.T, s string, e Embedded) {
	t.Helper()
	want, got := Text(s), e.AppendDense(nil)
	if len(got) != len(want) {
		t.Fatalf("%q: memo vector has %d dims, want %d", s, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%q: dim %d = %v, Text gives %v", s, i, got[i], want[i])
		}
	}
	if math.Float64bits(e.Norm2) != math.Float64bits(Norm2(want)) {
		t.Fatalf("%q: memo norm %v, Norm2 gives %v", s, e.Norm2, Norm2(want))
	}
}

func TestMemoReturnsTextBits(t *testing.T) {
	m := newMemo(8)
	for _, s := range []string{"", "   ", "revenue", "SUM(revenue) / SUM(views)", "Top-5 orgs (QoQFP)!", "KKelvin"} {
		sameEmbedding(t, s, m.get(s)) // cold
		sameEmbedding(t, s, m.get(s)) // warm
	}
}

func TestMemoSharesOneVector(t *testing.T) {
	m := newMemo(8)
	a, b := m.get("quarterly revenue"), m.get("quarterly revenue")
	if &a.val[0] != &b.val[0] {
		t.Error("two lookups of one text returned different vectors")
	}
}

// TestMemoBounded inserts far past the capacity: the memo never holds more
// than its capacity, recently used texts survive a generation turning over,
// and an evicted text comes back with the same bits.
func TestMemoBounded(t *testing.T) {
	const capacity = 16
	m := newMemo(capacity)
	hot := "the text every round asks for"
	first := m.get(hot)
	for i := 0; i < 50*capacity; i++ {
		m.get(fmt.Sprintf("one-off text %d", i))
		if i%4 == 0 {
			m.get(hot)
		}
		if n := m.size(); n > capacity {
			t.Fatalf("after %d inserts the memo holds %d entries, capacity %d", i+1, n, capacity)
		}
	}
	if again := m.get(hot); &again.val[0] != &first.val[0] {
		t.Error("a text asked for every generation was evicted")
	}
	sameEmbedding(t, "one-off text 0", m.get("one-off text 0")) // long evicted
}

// TestMemoConcurrent has 8 goroutines ask for overlapping keys while the
// small capacity keeps generations turning over (run under -race).
func TestMemoConcurrent(t *testing.T) {
	m := newMemo(32)
	texts := make([]string, 100)
	want := make([]Vector, len(texts))
	for i := range texts {
		texts[i] = fmt.Sprintf("SELECT col_%d FROM t WHERE k = %d", i%17, i)
		want[i] = Text(texts[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := range texts {
					j := (i*7 + g*13 + round) % len(texts)
					got := m.get(texts[j]).AppendDense(nil)
					for d := range want[j] {
						if got[d] != want[j][d] {
							t.Errorf("goroutine %d: %q dim %d = %v, want %v", g, texts[j], d, got[d], want[j][d])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := m.size(); n > 32 {
		t.Errorf("memo holds %d entries, capacity 32", n)
	}
}

// TestEmbeddedCosineMatchesCosine: the cached-norm form has Cosine's bits,
// in both operand orders, including the zero-vector and length edge cases.
func TestEmbeddedCosineMatchesCosine(t *testing.T) {
	texts := []string{"", "revenue per viewer", "SUM(revenue) / SUM(views)", "WHERE country = 'Canada'", "revenue per viewer"}
	for _, a := range texts {
		for _, b := range texts {
			ea, eb := Memo(a), Memo(b)
			got, want := ea.Cosine(eb), Cosine(Text(a), Text(b))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Cosine(%q, %q) = %v through Embedded, %v through Cosine", a, b, got, want)
			}
		}
	}
	short := sparseOf(Vector{1, 0})
	if got := short.Cosine(Memo("revenue")); got != 0 {
		t.Errorf("mismatched lengths score %v, want 0", got)
	}
}
