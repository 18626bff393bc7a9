package embed

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oneVectorDot is the loop DotBatch must reproduce per candidate: one sum,
// products added in index order; 0 for a length mismatch.
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

// sameFloat is equality on bits. Two NaNs count as equal whatever their
// payload: which operand's payload a NaN·NaN product inherits is the
// instruction's operand order, which the language does not fix.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkDotBatch compares DotBatch with the one-vector loop, and the score
// CosineBatch derives from it with Cosine, on every vector.
func checkDotBatch(t *testing.T, q Vector, vecs []Vector) {
	t.Helper()
	// out is longer than vecs and pre-filled: DotBatch must write exactly
	// len(vecs) results.
	const canary = 12345.678
	out := make([]float64, len(vecs)+2)
	for i := range out {
		out[i] = canary
	}
	DotBatch(q, vecs, out)
	for i, v := range vecs {
		if want := oneVectorDot(q, v); !sameFloat(out[i], want) {
			t.Errorf("vector %d of %d (len %d, query len %d): DotBatch %v (%#x), one-vector loop %v (%#x)",
				i, len(vecs), len(v), len(q), out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
		}
	}
	for i := len(vecs); i < len(out); i++ {
		if out[i] != canary {
			t.Errorf("DotBatch wrote past its %d vectors (out[%d] = %v)", len(vecs), i, out[i])
		}
	}

	norms2 := make([]float64, len(vecs))
	for i, v := range vecs {
		norms2[i] = Norm2(v)
	}
	scores := make([]float64, len(vecs))
	CosineBatch(q, Norm2(q), vecs, norms2, scores)
	for i, v := range vecs {
		if want := Cosine(q, v); !sameFloat(scores[i], want) {
			t.Errorf("vector %d of %d (len %d, query len %d): CosineBatch %v (%#x), Cosine %v (%#x)",
				i, len(vecs), len(v), len(q), scores[i], math.Float64bits(scores[i]), want, math.Float64bits(want))
		}
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
// float64 bit patterns (so NaN payloads, infinities and subnormals all
// occur), some deliberately of the wrong length, and holds DotBatch and
// CosineBatch to checkDotBatch's standard.
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

// TestSearchVectorAllocs: a search allocates its result and nothing per
// candidate or per retained hit — no boxing into a heap interface, no
// reflection-based swapper — on the plain scan and through the ANN
// partitions alike, so the count does not depend on k.
func TestSearchVectorAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := fuzzPool(rng, 40)
	build := func(ann bool) *Index {
		ix := NewIndex()
		for i := 0; i < 600; i++ {
			ix.AddVector(fmt.Sprintf("item-%04d", i), fuzzVector(rng, pool))
		}
		if ann {
			ix.EnableANN(ANNConfig{})
		}
		ix.Build()
		return ix
	}
	q := fuzzVector(rng, pool)
	for name, ix := range map[string]*Index{"scan": build(false), "ann": build(true)} {
		if name == "ann" && ix.ann == nil {
			t.Fatal("the ANN index did not partition")
		}
		for _, k := range []int{1, 8, 24, 200} {
			if got := testing.AllocsPerRun(100, func() { ix.SearchVector(q, k) }); got != 1 {
				t.Errorf("%s path, k=%d: %v allocations per search, want 1 (the hits)", name, k, got)
			}
		}
	}
}

var dotSink float64

// BenchmarkDotBatch scores the same vectors one at a time and four at a
// time, from a set that fits in cache and from one that does not.
func BenchmarkDotBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	vector := func() Vector {
		v := make(Vector, Dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		return v
	}
	q := vector()
	for _, set := range []struct {
		name  string
		count int
	}{
		{"in_cache", 16},       // 24 KB
		{"streaming", 1 << 15}, // 48 MB
	} {
		vecs := make([]Vector, set.count)
		for i := range vecs {
			vecs[i] = vector()
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
		b.Run(set.name+"/4-wide", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				DotBatch(q, vecs, out)
				dotSink += out[0]
			}
			perVector(b)
		})
	}
}
