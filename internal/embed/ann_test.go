package embed

import (
	"fmt"
	"math/rand"
	"testing"
)

// annTestDim keeps the fuzz sweep fast; the index is dimension-agnostic.
const annTestDim = 32

// fuzzVector draws from a small pool of directions (so exact-duplicate
// scores are common and the ID tie-break is exercised constantly), scales
// some of them (same direction, different magnitude — identical cosine),
// and makes a few exactly zero.
func fuzzVector(rng *rand.Rand, pool []Vector) Vector {
	if rng.Intn(20) == 0 {
		return make(Vector, annTestDim) // zero vector
	}
	base := pool[rng.Intn(len(pool))]
	v := append(Vector(nil), base...)
	if rng.Intn(3) == 0 {
		scale := 0.25 + 3*rng.Float64()
		for i := range v {
			v[i] *= scale
		}
	}
	return v
}

func fuzzPool(rng *rand.Rand, size int) []Vector {
	pool := make([]Vector, size)
	for i := range pool {
		v := make(Vector, annTestDim)
		for d := range v {
			v[d] = rng.NormFloat64()
		}
		pool[i] = v
	}
	return pool
}

// assertSameHits requires bitwise-equal results: same IDs, same order, same
// float64 scores.
func assertSameHits(t *testing.T, ctx string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d hits, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("%s: hit %d = {%s %v}, want {%s %v}", ctx,
				i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

func assertParity(t *testing.T, ctx string, ix *Index, q Vector, k int) {
	t.Helper()
	assertSameHits(t, fmt.Sprintf("%s k=%d", ctx, k), ix.SearchVector(q, k), ix.SearchVectorBrute(q, k))
}

// TestANNParitySweep is the seeded fuzz gate: across index sizes (including
// 0, 1, k-1, k, and 10k), duplicate scores, zero vectors, and replaced IDs,
// ANN top-k must be order-identical — scores and tie-breaks — to
// SearchVectorBrute for every (n, k, nprobe) combination.
func TestANNParitySweep(t *testing.T) {
	const refK = 8
	sizes := []int{0, 1, refK - 1, refK, 300, 10000}
	probes := []int{1, 2, 4, 16}

	for _, n := range sizes {
		for _, nprobe := range probes {
			rng := rand.New(rand.NewSource(int64(421*n + nprobe)))
			pool := fuzzPool(rng, 40)
			ix := NewIndex()
			for i := 0; i < n; i++ {
				ix.AddVector(fmt.Sprintf("item-%05d", i), fuzzVector(rng, pool))
			}
			ix.EnableANN(ANNConfig{MinSize: 1, Probes: nprobe})
			ix.Build()

			ks := []int{0, 1, refK - 1, refK, 25, n - 1, n, n + 5, -1}
			queries := make([]Vector, 0, 8)
			for i := 0; i < 5; i++ {
				queries = append(queries, fuzzVector(rng, pool))
			}
			queries = append(queries, make(Vector, annTestDim)) // zero query
			if n > 0 {
				stored := ix.vecs[rng.Intn(n)].AppendDense(nil)
				queries = append(queries, stored)
				neg := append(Vector(nil), stored...)
				for i := range neg {
					neg[i] = -neg[i]
				}
				queries = append(queries, neg)
			}

			ctx := fmt.Sprintf("n=%d nprobe=%d", n, nprobe)
			for qi, q := range queries {
				for _, k := range ks {
					assertParity(t, fmt.Sprintf("%s q=%d", ctx, qi), ix, q, k)
				}
			}

			// Replace a slice of IDs in place (old partitions keep their
			// conservative cones) and re-check.
			for i := 0; i < n/10; i++ {
				ix.AddVector(fmt.Sprintf("item-%05d", rng.Intn(n)), fuzzVector(rng, pool))
			}
			// Grow the index with fresh IDs; crossing 2x the built size must
			// transparently repartition.
			grow := n/3 + 1
			for i := 0; i < grow; i++ {
				ix.AddVector(fmt.Sprintf("late-%05d", i), fuzzVector(rng, pool))
			}
			for qi, q := range queries {
				for _, k := range ks {
					assertParity(t, fmt.Sprintf("%s(mutated) q=%d", ctx, qi), ix, q, k)
				}
			}
		}
	}
}

// TestANNSubLinearScan pins the point of the whole layer: on clustered data
// at the 10k scale, the average ANN search must score well under a quarter
// of the index (in practice a few percent), not degenerate to brute force.
func TestANNSubLinearScan(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(99))
	pool := fuzzPool(rng, 64)
	ix := NewIndex()
	for i := 0; i < n; i++ {
		base := pool[rng.Intn(len(pool))]
		v := append(Vector(nil), base...)
		for d := range v {
			v[d] += 0.05 * rng.NormFloat64()
		}
		ix.AddVector(fmt.Sprintf("item-%05d", i), v)
	}
	ix.EnableANN(ANNConfig{MinSize: 1})
	ix.Build()

	before := ix.Stats()
	const searches = 100
	for i := 0; i < searches; i++ {
		q := append(Vector(nil), pool[i%len(pool)]...)
		for d := range q {
			q[d] += 0.05 * rng.NormFloat64()
		}
		assertParity(t, "sublinear", ix, q, 16)
	}
	st := ix.Stats()
	annSearches := st.ANNSearches - before.ANNSearches
	// The brute reference run by assertParity goes through SearchVectorBrute
	// directly, which is unrecorded, so the counters below are ANN-only.
	if annSearches != searches {
		t.Fatalf("expected %d ANN searches, got %d", searches, annSearches)
	}
	avg := float64(st.CandidatesScanned-before.CandidatesScanned) / float64(annSearches)
	if avg >= n/4 {
		t.Fatalf("ANN scanned %.0f candidates/search on clustered data; want < %d", avg, n/4)
	}
	t.Logf("ANN scanned %.1f candidates/search over %d items (%.2f%%), %d full sweeps",
		avg, n, 100*avg/n, st.FullSweeps-before.FullSweeps)
}

// TestANNDeterministicBuild: identical build inputs must yield identical
// partitionings, observable through identical probe/scan counters.
func TestANNDeterministicBuild(t *testing.T) {
	build := func() *Index {
		rng := rand.New(rand.NewSource(7))
		pool := fuzzPool(rng, 32)
		ix := NewIndex()
		for i := 0; i < 2000; i++ {
			ix.AddVector(fmt.Sprintf("item-%05d", i), fuzzVector(rng, pool))
		}
		ix.EnableANN(ANNConfig{MinSize: 1, Probes: 2})
		ix.Build()
		return ix
	}
	a, b := build(), build()
	rng := rand.New(rand.NewSource(8))
	pool := fuzzPool(rng, 32)
	for i := 0; i < 50; i++ {
		q := fuzzVector(rng, pool)
		assertSameHits(t, "deterministic", a.SearchVector(q, 10), b.SearchVector(q, 10))
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.CandidatesScanned != sb.CandidatesScanned || sa.PartitionsProbed != sb.PartitionsProbed {
		t.Fatalf("identical builds diverged: %+v vs %+v", sa, sb)
	}
}

// TestANNBelowMinSizeStaysBrute: Build must not partition a too-small index,
// and the plain path must keep serving it.
func TestANNBelowMinSizeStaysBrute(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 10; i++ {
		ix.Add(fmt.Sprintf("doc-%d", i), fmt.Sprintf("quarterly revenue report %d", i))
	}
	ix.EnableANN(ANNConfig{MinSize: 100})
	ix.Build()
	if ix.ann != nil {
		t.Fatal("index below MinSize should not be partitioned")
	}
	q := Text("revenue report")
	assertParity(t, "below-min", ix, q, 3)
	st := ix.Stats()
	if st.ANNSearches != 0 {
		t.Fatalf("expected no ANN searches below MinSize, got %d", st.ANNSearches)
	}
}

// TestAddNormMatchesGeneralPath guards the Add fast path (satellite: Text
// vectors arrive with their norm precomputed): the cached squared norm — and
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
	q := Text("revenue per organisation")
	assertSameHits(t, "add-paths", fast.SearchVector(q, 3), general.SearchVector(q, 3))
}

// TestANNZeroQueryAndAllZeroIndex covers the degenerate corners explicitly.
func TestANNZeroQueryAndAllZeroIndex(t *testing.T) {
	// All-zero index: Build declines to partition, searches still work.
	zeroIx := NewIndex()
	for i := 0; i < 8; i++ {
		zeroIx.AddVector(fmt.Sprintf("z-%d", i), make(Vector, annTestDim))
	}
	zeroIx.EnableANN(ANNConfig{MinSize: 1})
	zeroIx.Build()
	rng := rand.New(rand.NewSource(3))
	q := fuzzPool(rng, 1)[0]
	assertParity(t, "all-zero index", zeroIx, q, 3)

	// Mixed index, zero query: every score is 0, order is pure ID order.
	ix := NewIndex()
	pool := fuzzPool(rng, 8)
	for i := 0; i < 50; i++ {
		ix.AddVector(fmt.Sprintf("m-%02d", i), fuzzVector(rng, pool))
	}
	ix.EnableANN(ANNConfig{MinSize: 1})
	ix.Build()
	assertParity(t, "zero query", ix, make(Vector, annTestDim), 5)
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

// BenchmarkANNVsBrute measures the raw index speedup at 1x/10x/100x of a
// typical per-database knowledge scale (~150 items); the serving-level
// version lives in the root package's BenchmarkANNSearch.
func BenchmarkANNVsBrute(b *testing.B) {
	for _, scale := range []int{1, 10, 100} {
		n := 150 * scale
		rng := rand.New(rand.NewSource(int64(scale)))
		pool := fuzzPool(rng, 64)
		build := func(ann bool) *Index {
			ix := NewIndex()
			for i := 0; i < n; i++ {
				base := pool[rng.Intn(len(pool))]
				v := append(Vector(nil), base...)
				for d := range v {
					v[d] += 0.05 * rng.NormFloat64()
				}
				ix.AddVector(fmt.Sprintf("item-%06d", i), v)
			}
			if ann {
				ix.EnableANN(ANNConfig{MinSize: 1})
				ix.Build()
			}
			return ix
		}
		queries := make([]Vector, 32)
		for i := range queries {
			q := append(Vector(nil), pool[i%len(pool)]...)
			for d := range q {
				q[d] += 0.05 * rng.NormFloat64()
			}
			queries[i] = q
		}
		for _, mode := range []string{"brute", "ann"} {
			ix := build(mode == "ann")
			b.Run(fmt.Sprintf("scale=%dx/%s", scale, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ix.SearchVector(queries[i%len(queries)], 16)
				}
			})
		}
	}
}
