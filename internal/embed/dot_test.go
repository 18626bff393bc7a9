package embed

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oneVectorDot is the loop every kernel must reproduce per candidate: one
// sum, products added in index order; 0 for a length mismatch.
func oneVectorDot(q, v Vector) float64 {
	if len(q) != len(v) {
		return 0
	}
	var s float64
	for j := range q {
		s += q[j] * v[j]
	}
	return s
}

// sparseOf is v in sparse form with Norm2(v).
func sparseOf(v Vector) Embedded { return sparse(v, Norm2(v)) }

// sameFloat is equality on bits. Two NaNs count as equal whatever their
// payload: which operand's payload a NaN·NaN product inherits is the
// instruction's operand order, which the language does not fix.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkDotBatch holds every sparse kernel to the one-vector loop and to
// Cosine, on every vector (see checkSparse).
func checkDotBatch(t *testing.T, q Vector, vecs []Vector) {
	t.Helper()
	scores := make([]float64, len(vecs))
	for i, v := range vecs {
		scores[i] = Cosine(q, v)
	}
	checkSparse(t, q, vecs, scores)
}

// checkSparse scores every vector in sparse form — gathered against the
// dense query, merged against the query stored sparse in both operand
// orders, and through CosineBatch, CosineGather and Embedded.Cosine — and
// holds each result to the one-vector loop or to cosines[i] = Cosine(q,
// vecs[i]).
func checkSparse(t *testing.T, q Vector, vecs []Vector, cosines []float64) {
	t.Helper()
	same := func(what string, i int, got, want float64) {
		t.Helper()
		if !sameFloat(got, want) {
			t.Errorf("vector %d of %d (len %d, query len %d): %s %v (%#x), dense %v (%#x)",
				i, len(vecs), len(vecs[i]), len(q), what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// The gather is exact whenever no query component is infinite or NaN,
	// even where the squared norm overflows; CosineBatch only asks the
	// cheaper question of the norm.
	qFinite := true
	for _, x := range q {
		qFinite = qFinite && finite(x)
	}
	sq := sparseOf(q)
	stored := make([]Embedded, len(vecs))
	for i, v := range vecs {
		stored[i] = sparseOf(v)
		e := &stored[i]
		back := e.AppendDense(Vector{7})[1:]
		if len(back) != len(v) {
			t.Fatalf("vector %d: %d components densify to %d", i, len(v), len(back))
		}
		for j := range v {
			if !sameFloat(back[j], v[j]) && !(v[j] == 0 && back[j] == 0) {
				t.Fatalf("vector %d dim %d: stored %v, densified %v", i, j, v[j], back[j])
			}
		}
		want := oneVectorDot(q, v)
		same("gather", i, dotSparse(q, qFinite, e), want)
		same("dense fallback", i, dotSparse(q, false, e), want)
		same("merge", i, sq.dot(e), want)
		same("merge, operands swapped", i, e.dot(&sq), oneVectorDot(v, q))
		same("Embedded.Cosine", i, sq.Cosine(*e), cosines[i])
		same("Embedded.Cosine, operands swapped", i, e.Cosine(sq), Cosine(v, q))
	}

	// out is longer than vecs and pre-filled: CosineBatch must write
	// exactly len(vecs) results.
	const canary = 12345.678
	out := make([]float64, len(vecs)+2)
	for i := range out {
		out[i] = canary
	}
	CosineBatch(q, Norm2(q), stored, out)
	for i := range vecs {
		same("CosineBatch", i, out[i], cosines[i])
	}
	for i := len(vecs); i < len(out); i++ {
		if out[i] != canary {
			t.Errorf("CosineBatch wrote past its %d vectors (out[%d] = %v)", len(vecs), i, out[i])
		}
	}
	// CosineGather over the positions in reverse, each listed twice.
	var at []int
	for i := len(vecs) - 1; i >= 0; i-- {
		at = append(at, i, i)
	}
	out = make([]float64, len(at))
	CosineGather(q, Norm2(q), stored, at, out)
	for k, i := range at {
		same("CosineGather", i, out[k], cosines[i])
	}
}

// specials are the values where float arithmetic stops being forgiving.
var specials = []float64{
	0, math.Copysign(0, -1), 1, -1, math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 4,
	math.MaxFloat64, -math.MaxFloat64, 1e-200, 1e200, 0.1, 1.0 / 3,
}

func TestDotBatchMatchesOneVectorLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ordinary := func(n int) Vector {
		v := make(Vector, n)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		return v
	}
	special := func(n int) Vector {
		v := ordinary(n)
		for j := range v {
			if rng.Intn(3) == 0 {
				v[j] = specials[rng.Intn(len(specials))]
			}
		}
		return v
	}
	for _, dim := range []int{0, 1, 3, Dim} {
		for count := 0; count <= 9; count++ {
			t.Run(fmt.Sprintf("dim%d/count%d", dim, count), func(t *testing.T) {
				q := ordinary(dim)
				vecs := make([]Vector, count)
				for i := range vecs {
					vecs[i] = ordinary(dim)
				}
				checkDotBatch(t, q, vecs)

				// One vector of the wrong length, at every place in the batch:
				// its group of four falls back to the one-vector form.
				for wrong := 0; wrong < count; wrong++ {
					mixed := append([]Vector(nil), vecs...)
					mixed[wrong] = ordinary(dim + 1)
					checkDotBatch(t, q, mixed)
					mixed[wrong] = nil
					checkDotBatch(t, q, mixed)
				}

				// Zero vectors, on either side.
				zeroed := append([]Vector(nil), vecs...)
				for i := range zeroed {
					if i%2 == 0 {
						zeroed[i] = make(Vector, dim)
					}
				}
				checkDotBatch(t, q, zeroed)
				checkDotBatch(t, make(Vector, dim), vecs)

				// NaN, infinities, subnormals and overflow, on both sides.
				for round := 0; round < 4; round++ {
					odd := make([]Vector, count)
					for i := range odd {
						odd[i] = special(dim)
					}
					checkDotBatch(t, special(dim), odd)
					checkDotBatch(t, q, odd)
				}
			})
		}
	}
}

// FuzzDotBatch decodes its input as a query and up to nine vectors of raw
// float64 bit patterns (so NaN payloads, infinities, subnormals and −0 all
// occur), some deliberately of the wrong length, and holds every sparse
// kernel to checkDotBatch's standard.
//
// Layout: byte 0 = vector count (mod 10), byte 1 = dimension (mod 24),
// byte 2 = bit set of vectors that get one element more; then 8 bytes per
// element, query first. Missing bytes read as zero.
func FuzzDotBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 3, 0})
	f.Add(append([]byte{9, 2, 0b101}, make([]byte, 64)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		count, dim, longer := int(next())%10, int(next())%24, next()
		vector := func(n int) Vector {
			v := make(Vector, n)
			for j := range v {
				var raw [8]byte
				for b := range raw {
					raw[b] = next()
				}
				v[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
			}
			return v
		}
		q := vector(dim)
		vecs := make([]Vector, count)
		for i := range vecs {
			n := dim
			if longer&(1<<(i%8)) != 0 {
				n++
			}
			vecs[i] = vector(n)
		}
		checkDotBatch(t, q, vecs)
	})
}

// TestIndexScoresAllocatesNothing: a search fills the caller's array and
// allocates nothing per candidate, whatever the size of the index.
func TestIndexScoresAllocatesNothing(t *testing.T) {
	for _, n := range []int{0, 3, 600} {
		ix := NewIndexSized(0, 0)
		for i := 0; i < n; i++ {
			ix.Add(fmt.Sprintf("item-%04d", i), fmt.Sprintf("top %d stores by total net sales in district %d", i, i%7))
		}
		q := Text("net sales per district")
		qNorm2 := Norm2(q)
		out := make([]float64, n)
		if got := testing.AllocsPerRun(100, func() { ix.Scores(q, qNorm2, out) }); got != 0 {
			t.Errorf("%d items: %v allocations per search, want 0", n, got)
		}
	}
}

var dotSink float64

// BenchmarkDotBatch scores the same vectors dense, one at a time, and
// sparse, one at a time and four at a time, from a set that fits in cache
// and from one that does not. Each vector has 18–30 non-zero components,
// what a Text vector fills, so the dense leg multiplies some 170 zeros per
// vector and the sparse legs gather only the rest. The sparse legs are
// cosines, as the retrieval path computes them: one vector at a time, and
// CosineBatch's four-wide gather.
func BenchmarkDotBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	vector := func() Vector {
		v := make(Vector, Dim)
		for _, j := range rng.Perm(Dim)[:18+rng.Intn(13)] {
			v[j] = rng.NormFloat64()
		}
		return v
	}
	q := vector()
	for _, set := range []struct {
		name  string
		count int
	}{
		{"in_cache", 16},       // 24 KB dense
		{"streaming", 1 << 15}, // 48 MB dense
	} {
		vecs := make([]Vector, set.count)
		stored := make([]Embedded, set.count)
		for i := range vecs {
			vecs[i] = vector()
			stored[i] = sparseOf(vecs[i])
		}
		out := make([]float64, len(vecs))
		perVector := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vecs)), "ns/vector")
		}
		b.Run(set.name+"/1-wide", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, v := range vecs {
					out[j] = oneVectorDot(q, v)
				}
				dotSink += out[0]
			}
			perVector(b)
		})
		qNorm2 := Norm2(q)
		b.Run(set.name+"/sparse-1-wide", func(b *testing.B) {
			b.ReportAllocs()
			qLen := math.Sqrt(qNorm2)
			for i := 0; i < b.N; i++ {
				for j := range stored {
					out[j] = cosineSparse(q, qNorm2, qLen, &stored[j])
				}
				dotSink += out[0]
			}
			perVector(b)
		})
		b.Run(set.name+"/sparse-4-wide", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CosineBatch(q, qNorm2, stored, out)
				dotSink += out[0]
			}
			perVector(b)
		})
	}
}
