package embed

import (
	"fmt"
	"math"
	"slices"
)

// Embedded is an embedding stored sparse: the non-zero components of a
// dense vector as ascending (index, value) pairs, the length of that dense
// vector, and its squared norm. A Text vector fills 18–30 of its Dim
// buckets, so this is what every stored vector is — index slots, the
// pipeline's retrieval tables, memo entries — and a score against it
// gathers a couple of dozen query components instead of multiplying Dim.
//
// The scores are the dense loop's bits. That loop adds q[j]·v[j] for every
// j in ascending order into an accumulator that starts at +0. For v[j] = ±0
// and a finite q[j] the term is ±0, and adding ±0 never changes the bits of
// an accumulator that started at +0: x + ±0 = x for x ≠ 0, +0 + ±0 = +0, and
// a sum of non-zero terms that cancels exactly rounds to +0, never −0. So
// skipping the zero components leaves the same additions, in the same order,
// on the same values. A non-finite component breaks the argument (Inf·0 is
// NaN, not 0); then the kernels fall back to the dense loop. A finite
// squared norm proves every component finite, so that test costs nothing.
type Embedded struct {
	idx []uint8
	val []float64
	n   int // length of the dense vector
	// Norm2 is the squared L2 norm of the dense vector, accumulated in index
	// order: Norm2 of it, bit for bit.
	Norm2 float64
}

// maxSparseLen is the longest dense vector the uint8 indexes can address.
const maxSparseLen = 256

// sparse stores the non-zero components of v (−0 counts as zero; NaN does
// not) with a squared norm the caller has already accumulated over v.
// Skipped components add +0 to that sum, so it is also the sum over the
// stored values.
func sparse(v Vector, n2 float64) Embedded {
	if len(v) > maxSparseLen {
		panic(fmt.Sprintf("embed: a vector of length %d is longer than the %d a sparse index addresses", len(v), maxSparseLen))
	}
	nnz := 0
	for _, x := range v {
		if x != 0 {
			nnz++
		}
	}
	e := Embedded{n: len(v), Norm2: n2}
	if nnz == 0 {
		return e
	}
	e.idx, e.val = make([]uint8, 0, nnz), make([]float64, 0, nnz)
	for j, x := range v {
		if x != 0 {
			e.idx = append(e.idx, uint8(j))
			e.val = append(e.val, x)
		}
	}
	return e
}

// Len is the length of the dense vector e stores.
func (e Embedded) Len() int { return e.n }

// AppendDense appends the dense vector e stores to dst and returns the
// extended slice; a dst with room for Len more components is not
// reallocated, so a caller can densify into a stack or pooled buffer.
// Components stored as −0 come back as +0, which scores the same.
func (e Embedded) AppendDense(dst Vector) Vector {
	dst = slices.Grow(dst, e.n)
	d := dst[len(dst) : len(dst)+e.n]
	clear(d)
	for k, j := range e.idx {
		d[j] = e.val[k]
	}
	return dst[:len(dst)+e.n]
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return x-x == 0 }

// dotSparse returns dot(q, v) for the dense v that e stores (0 on a length
// mismatch). gather says q has no non-finite component; without it the
// dense loop runs.
func dotSparse(q Vector, gather bool, e *Embedded) float64 {
	if len(q) != e.n {
		return 0
	}
	if !gather {
		return dotDense(q, e)
	}
	return gatherFrom(q, e, 0, 0)
}

// dotDense is the non-finite fallback: dot over e densified.
func dotDense(q Vector, e *Embedded) float64 {
	var buf [maxSparseLen]float64
	return dot(q, e.AppendDense(buf[:0]))
}

// cosineSparse is Cosine(q, dense v) for the v that e stores, given qLen =
// sqrt(qNorm2): CosineBatch's one-vector step.
func cosineSparse(q Vector, qNorm2, qLen float64, e *Embedded) float64 {
	if e.n != len(q) || e.n == 0 || qNorm2 == 0 || e.Norm2 == 0 {
		return 0
	}
	return dotSparse(q, finite(qNorm2), e) / (qLen * math.Sqrt(e.Norm2))
}

// cosineFour is four cosineSparse steps at once. Their gathers advance
// together while all four have components left, but every sum still adds
// its own products in its own ascending order, so each result has exactly
// the one-vector bits — interleaving only lets the four dependent add
// chains overlap instead of running back to back. Any vector the shared
// loop cannot take (another length, a zero norm, a non-finite query) goes
// through the one-vector step.
func cosineFour(q Vector, qNorm2, qLen float64, a, b, c, d *Embedded, out []float64) {
	out = out[:4]
	n := len(q)
	if a.n != n || b.n != n || c.n != n || d.n != n || n == 0 || !finite(qNorm2) || qNorm2 == 0 ||
		a.Norm2 == 0 || b.Norm2 == 0 || c.Norm2 == 0 || d.Norm2 == 0 {
		for i, e := range [4]*Embedded{a, b, c, d} {
			out[i] = cosineSparse(q, qNorm2, qLen, e)
		}
		return
	}
	m := min(len(a.idx), len(b.idx), len(c.idx), len(d.idx))
	ai, bi, ci, di := a.idx[:m], b.idx[:m], c.idx[:m], d.idx[:m]
	av, bv, cv, dv := a.val[:m], b.val[:m], c.val[:m], d.val[:m]
	var sa, sb, sc, sd float64
	for k := range ai {
		sa += q[ai[k]] * av[k]
		sb += q[bi[k]] * bv[k]
		sc += q[ci[k]] * cv[k]
		sd += q[di[k]] * dv[k]
	}
	sa = gatherFrom(q, a, m, sa)
	sb = gatherFrom(q, b, m, sb)
	sc = gatherFrom(q, c, m, sc)
	sd = gatherFrom(q, d, m, sd)
	out[0] = sa / (qLen * math.Sqrt(a.Norm2))
	out[1] = sb / (qLen * math.Sqrt(b.Norm2))
	out[2] = sc / (qLen * math.Sqrt(c.Norm2))
	out[3] = sd / (qLen * math.Sqrt(d.Norm2))
}

// gatherFrom continues the gather of q·e from stored component k on, into
// the partial sum s.
func gatherFrom(q Vector, e *Embedded, k int, s float64) float64 {
	idx := e.idx[k:]
	val := e.val[k:len(e.idx)]
	for i, j := range idx {
		s += q[j] * val[i]
	}
	return s
}

// CosineBatch writes Cosine(q, v) into out[i] for the dense v that vecs[i]
// stores, bit for bit, given qNorm2 = Norm2(q). It is the one scoring
// routine of the retrieval path — Index.Scores and the pipeline's
// re-rankers all score through it or through CosineGather, which share
// cosineFour and cosineSparse, so a score's bits do not depend on which of
// the two computed it.
func CosineBatch(q Vector, qNorm2 float64, vecs []Embedded, out []float64) {
	out = out[:len(vecs)]
	qLen := math.Sqrt(qNorm2)
	i := 0
	for ; i+4 <= len(vecs); i += 4 {
		cosineFour(q, qNorm2, qLen, &vecs[i], &vecs[i+1], &vecs[i+2], &vecs[i+3], out[i:])
	}
	for ; i < len(vecs); i++ {
		out[i] = cosineSparse(q, qNorm2, qLen, &vecs[i])
	}
}

// CosineGather is CosineBatch over the vectors at the given positions:
// out[i] scores vecs[at[i]].
func CosineGather(q Vector, qNorm2 float64, vecs []Embedded, at []int, out []float64) {
	out = out[:len(at)]
	qLen := math.Sqrt(qNorm2)
	i := 0
	for ; i+4 <= len(at); i += 4 {
		cosineFour(q, qNorm2, qLen, &vecs[at[i]], &vecs[at[i+1]], &vecs[at[i+2]], &vecs[at[i+3]], out[i:])
	}
	for ; i < len(at); i++ {
		out[i] = cosineSparse(q, qNorm2, qLen, &vecs[at[i]])
	}
}

// dot returns dot(a, b) over the dense vectors both store (0 on a length
// mismatch) by an ascending merge of their indexes: the same rule as the
// gather, with a zero on either side skipped. It needs both sides finite,
// which their finite squared norms prove; otherwise the dense loop runs.
func (a *Embedded) dot(b *Embedded) float64 {
	if a.n != b.n {
		return 0
	}
	if !finite(a.Norm2) || !finite(b.Norm2) {
		var buf [maxSparseLen]float64
		return dotDense(a.AppendDense(buf[:0]), b)
	}
	ai, bi := a.idx, b.idx
	av, bv := a.val[:len(ai)], b.val[:len(bi)]
	var s float64
	for i, j := 0, 0; i < len(ai) && j < len(bi); {
		switch {
		case ai[i] < bi[j]:
			i++
		case ai[i] > bi[j]:
			j++
		default:
			s += av[i] * bv[j]
			i++
			j++
		}
	}
	return s
}

// Cosine returns Cosine(a, b) over the dense vectors both store, bit for
// bit, reading both squared norms instead of re-accumulating them.
func (a Embedded) Cosine(b Embedded) float64 {
	if a.n != b.n || a.n == 0 || a.Norm2 == 0 || b.Norm2 == 0 {
		return 0
	}
	return a.dot(&b) / (math.Sqrt(a.Norm2) * math.Sqrt(b.Norm2))
}
