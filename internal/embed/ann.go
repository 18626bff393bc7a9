package embed

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"
	"time"
)

// This file adds a partitioned IVF-style layer to Index. The stored vectors
// are clustered into O(sqrt(n)) partitions by a deterministic, iteration-
// bounded spherical k-means; each search ranks partitions by how close the
// query is to their centroid and scans them best-first. What makes it exact
// rather than approximate is the cone bound kept per partition: the centroid
// plus the cosine of the widest member angle upper-bounds the cosine score
// any member can reach. A partition is skipped only when that bound is
// strictly below the current kth-best score, so the scanned set is always a
// superset of the true top-k and the returned hits — scored by the very same
// CosineBatch the brute scan uses — are order-identical (score and ID tie-break)
// to SearchVectorBrute. On adversarial queries the guard degrades gracefully
// into a full sweep: an automatic brute-force fallback, never a wrong answer.

// ANNConfig tunes the partitioned index. Zero values select the defaults.
type ANNConfig struct {
	// MinSize is the minimum item count before Build partitions the index;
	// below it searches use the plain scan (partitioning a tiny index costs
	// more than it saves). <= 0 means DefaultANNMinSize.
	MinSize int
	// Probes is the number of best-ranked partitions scanned unconditionally
	// before the cone-bound guard takes over. <= 0 means DefaultANNProbes.
	Probes int
}

// Default ANN tuning.
const (
	DefaultANNMinSize = 128
	DefaultANNProbes  = 4
)

// boundEps pads every cone bound so floating-point rounding in the bound
// arithmetic can only cause an extra scan, never a wrongly skipped
// partition. Scores themselves come from CosineBatch and are never padded.
const boundEps = 1e-9

// maxStackPartitions sizes searchANN's on-stack partition ranking.
const maxStackPartitions = 128

// kmeansMaxIters bounds the Lloyd refinement so builds are fast and
// reproducible; assignments usually stabilize in far fewer rounds.
const kmeansMaxIters = 6

// SearchStats is a snapshot of an index's retrieval counters. Candidate and
// partition counts are the sub-linearity evidence: CandidatesScanned /
// Searches approaching Len() means the guard is degenerating to brute force.
type SearchStats struct {
	// Searches counts SearchVector calls (ANN and scan paths combined).
	Searches uint64
	// ANNSearches counts searches answered through the partitioned sweep.
	ANNSearches uint64
	// CandidatesScanned is the total number of stored vectors scored.
	CandidatesScanned uint64
	// PartitionsProbed is the total number of partitions scanned by ANN
	// searches (probe floor + guard extensions).
	PartitionsProbed uint64
	// FullSweeps counts ANN searches whose guard ended up scanning every
	// partition — the automatic brute-force fallback engaging.
	FullSweeps uint64
	// SearchNanos is the cumulative wall time spent inside SearchVector.
	SearchNanos uint64
}

// searchCounters is the atomic backing store for SearchStats.
type searchCounters struct {
	searches    atomic.Uint64
	annSearches atomic.Uint64
	scanned     atomic.Uint64
	probed      atomic.Uint64
	fullSweeps  atomic.Uint64
	nanos       atomic.Uint64
}

func (c *searchCounters) record(start time.Time, scanned, probed int, ann, fullSweep bool) {
	c.searches.Add(1)
	c.scanned.Add(uint64(scanned))
	if ann {
		c.annSearches.Add(1)
		c.probed.Add(uint64(probed))
		if fullSweep {
			c.fullSweeps.Add(1)
		}
	}
	c.nanos.Add(uint64(time.Since(start)))
}

// Stats returns a snapshot of the index's retrieval counters. Safe to call
// concurrently with searches.
func (ix *Index) Stats() SearchStats {
	return SearchStats{
		Searches:          ix.stats.searches.Load(),
		ANNSearches:       ix.stats.annSearches.Load(),
		CandidatesScanned: ix.stats.scanned.Load(),
		PartitionsProbed:  ix.stats.probed.Load(),
		FullSweeps:        ix.stats.fullSweeps.Load(),
		SearchNanos:       ix.stats.nanos.Load(),
	}
}

// annPartitions is one immutable-after-Build partitioning of the index.
type annPartitions struct {
	builtN    int // items present when Build ran (repartition trigger)
	probes    int // resolved probe floor
	centroids []Vector
	members   [][]int   // item positions per partition
	cosR      []float64 // cos of each partition's widest member angle
	sinR      []float64
	assign    []int // per-position partition (-1 = zero vector)
	zeros     []int // zero-norm (or non-finite) positions; always candidates
}

// EnableANN arms the partitioned layer with the given tuning; the next
// Build call (re)partitions the index. It does not build by itself, so the
// usual sequence is Add… → EnableANN → Build.
func (ix *Index) EnableANN(cfg ANNConfig) {
	if cfg.MinSize <= 0 {
		cfg.MinSize = DefaultANNMinSize
	}
	if cfg.Probes <= 0 {
		cfg.Probes = DefaultANNProbes
	}
	ix.annCfg = cfg
	ix.annWanted = true
}

// DisableANN drops the partitioned layer; searches revert to the plain scan.
func (ix *Index) DisableANN() {
	ix.annWanted = false
	ix.ann = nil
}

// Build (re)partitions the index when ANN is enabled and the index has
// reached the configured minimum size; otherwise it clears any stale
// partitioning. Builds are deterministic in the index contents (seeded by
// ID order, iteration-bounded) and idempotent.
func (ix *Index) Build() {
	ix.ann = nil
	if !ix.annWanted || len(ix.ids) < ix.annCfg.MinSize {
		return
	}

	// Unit-normalize once, in sparse form: a unit shares its vector's
	// indexes and scales only the stored values. Zero vectors score 0 against
	// everything and live outside the partitioning.
	n := len(ix.ids)
	units := make([]Embedded, n)
	var nonzero, zeros []int
	for i := 0; i < n; i++ {
		u, ok := ix.unit(i)
		if !ok {
			zeros = append(zeros, i)
			continue
		}
		units[i] = u
		nonzero = append(nonzero, i)
	}
	if len(nonzero) == 0 {
		return // all-zero index: every search is trivially score 0
	}

	nlist := int(math.Sqrt(float64(len(nonzero))))
	if nlist < 1 {
		nlist = 1
	}
	if nlist > len(nonzero) {
		nlist = len(nonzero)
	}

	// Deterministic seeding: stride over the ID-sorted nonzero items, so the
	// build depends only on index contents, not insertion order.
	byID := append([]int(nil), nonzero...)
	slices.SortFunc(byID, func(a, b int) int { return cmp.Compare(ix.ids[a], ix.ids[b]) })
	centroids := make([]Vector, nlist)
	for j := 0; j < nlist; j++ {
		seed := byID[(j*len(byID))/nlist]
		centroids[j] = units[seed].AppendDense(nil)
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	for iter := 0; iter < kmeansMaxIters; iter++ {
		changed := false
		for _, p := range nonzero {
			best := nearestCentroid(&units[p], centroids)
			if assign[p] != best {
				assign[p] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		// Recompute centroids as normalized member means; a partition left
		// empty keeps its previous centroid (it simply attracts no one).
		sums := make([]Vector, nlist)
		counts := make([]int, nlist)
		// Each sum adds its members' stored components in member order;
		// the components a unit does not store would add +0 to a sum that
		// started at +0, which changes nothing (see Embedded).
		for _, p := range nonzero {
			j := assign[p]
			u := &units[p]
			if sums[j] == nil {
				sums[j] = make(Vector, u.n)
			}
			s := sums[j]
			for k, d := range u.idx {
				s[d] += u.val[k]
			}
			counts[j]++
		}
		for j := 0; j < nlist; j++ {
			if counts[j] == 0 || sums[j] == nil {
				continue
			}
			if normalizeInPlace(sums[j]) != 0 {
				centroids[j] = sums[j]
			}
		}
	}

	a := &annPartitions{
		builtN:    n,
		probes:    ix.annCfg.Probes,
		centroids: centroids,
		members:   make([][]int, nlist),
		cosR:      make([]float64, nlist),
		sinR:      make([]float64, nlist),
		assign:    assign,
		zeros:     zeros,
	}
	for j := range a.cosR {
		a.cosR[j] = 1
	}
	for _, p := range nonzero {
		j := assign[p]
		a.members[j] = append(a.members[j], p)
		a.widen(j, dotClamped(&units[p], centroids[j]))
	}
	ix.ann = a
}

// unit returns the vector at position p scaled to unit length, sharing its
// indexes, or false when it has no direction to partition by: a zero vector,
// or one whose squared norm is not finite. Such vectors are scanned by every
// search instead, so no bound arithmetic ever sees a NaN.
func (ix *Index) unit(p int) (Embedded, bool) {
	e := &ix.vecs[p]
	if e.Norm2 == 0 || e.n == 0 || !finite(e.Norm2) {
		return Embedded{}, false
	}
	inv := 1 / math.Sqrt(e.Norm2)
	val := make([]float64, len(e.idx))
	for k, x := range e.val[:len(e.idx)] {
		val[k] = x * inv
	}
	return Embedded{idx: e.idx, val: val, n: e.n}, true
}

// widen grows partition j's cone to include a member at cosine d from the
// centroid.
func (a *annPartitions) widen(j int, d float64) {
	if d < a.cosR[j] {
		a.cosR[j] = d
		a.sinR[j] = math.Sqrt(math.Max(0, 1-d*d))
	}
}

// nearestCentroid returns the centroid with the largest dot product against
// the unit vector u (ties break to the lowest partition, for determinism).
// The products gather u's stored components; centroids are normalized sums
// of finite units, so they are finite and the gather is exact.
func nearestCentroid(u *Embedded, centroids []Vector) int {
	best, bestDot := 0, math.Inf(-1)
	for j, c := range centroids {
		d := dotSparse(c, true, u)
		if d > bestDot {
			best, bestDot = j, d
		}
	}
	return best
}

func dotClamped(u *Embedded, c Vector) float64 {
	d := dotSparse(c, true, u)
	if d > 1 {
		return 1
	}
	if d < -1 {
		return -1
	}
	return d
}

// annAbsorb integrates a freshly inserted or replaced item at position p
// into the live partitioning, so an index can keep serving between Build
// calls without going stale. The item joins its nearest partition and the
// cone widens to cover it exactly; a replaced item's old partition keeps its
// (now conservative) cone, which can only cause extra scans, never a miss.
// Once the index doubles past its built size the partitioning is rebuilt so
// the partition count stays O(sqrt(n)) and the cones stay tight.
func (ix *Index) annAbsorb(p int, replaced bool) {
	a := ix.ann
	if a == nil {
		return
	}
	if len(ix.ids) >= 2*a.builtN {
		ix.Build()
		return
	}
	if replaced {
		switch old := a.assign[p]; {
		case old >= 0:
			a.members[old] = removePos(a.members[old], p)
		default:
			a.zeros = removePos(a.zeros, p)
		}
	} else {
		a.assign = append(a.assign, -1)
	}
	u, ok := ix.unit(p)
	if !ok {
		a.assign[p] = -1
		a.zeros = append(a.zeros, p)
		return
	}
	j := nearestCentroid(&u, a.centroids)
	a.assign[p] = j
	a.members[j] = append(a.members[j], p)
	a.widen(j, dotClamped(&u, a.centroids[j]))
}

func removePos(list []int, p int) []int {
	for i, v := range list {
		if v == p {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// searchANN answers a top-k query through the partitioned sweep. Requires
// 0 < k < len(ix.ids), qNorm2 > 0, and ix.ann != nil. Returns the hits plus
// the candidates-scanned / partitions-probed counts and whether the guard
// swept every partition (the brute-fallback case).
func (ix *Index) searchANN(q Vector, qNorm2 float64, k int) ([]Hit, int, int, bool) {
	a := ix.ann
	invQ := 1 / math.Sqrt(qNorm2)

	// Rank partitions by the best cosine any member could reach: 1 when the
	// query direction lies inside the cone, cos(angle-to-centroid minus the
	// cone half-angle) otherwise — which expands to d·cosR + sqrt(1−d²)·sinR.
	type ranked struct {
		j     int
		bound float64
	}
	// The ranking lives on the stack up to maxStackPartitions partitions
	// (indexes of ~16k items); past that append moves it to the heap.
	var orderBuf [maxStackPartitions]ranked
	order := orderBuf[:0]
	var dots [scanChunk]float64
	for lo := 0; lo < len(a.centroids); lo += scanChunk {
		hi := min(lo+scanChunk, len(a.centroids))
		DotBatch(q, a.centroids[lo:hi], dots[:hi-lo])
		for j := lo; j < hi; j++ {
			if len(a.members[j]) == 0 {
				continue
			}
			d := dots[j-lo] * invQ
			if d > 1 {
				d = 1
			} else if d < -1 {
				d = -1
			}
			b := 1.0
			if d < a.cosR[j] {
				b = d*a.cosR[j] + math.Sqrt(1-d*d)*a.sinR[j]
			}
			order = append(order, ranked{j: j, bound: b + boundEps})
		}
	}
	slices.SortFunc(order, func(x, y ranked) int {
		if x.bound != y.bound {
			if x.bound > y.bound {
				return -1
			}
			return 1
		}
		return cmp.Compare(x.j, y.j)
	})

	scanned := 0
	top := newTopHits(k)
	var scores [scanChunk]float64
	// scan scores the vectors at the given positions, a chunk at a time,
	// with the same per-vector step the plain scan's CosineBatch takes.
	scan := func(positions []int) {
		scanned += len(positions)
		for len(positions) > 0 {
			n := min(scanChunk, len(positions))
			CosineGather(q, qNorm2, ix.vecs, positions[:n], scores[:n])
			for c, i := range positions[:n] {
				top.offer(Hit{ID: ix.ids[i], Score: scores[c]})
			}
			positions = positions[n:]
		}
	}

	// Zero vectors score 0 against every query; they are cheap permanent
	// candidates so ties at score 0 resolve by ID exactly as in brute.
	scan(a.zeros)

	probed := 0
	for rank, r := range order {
		// Partitions arrive bound-descending, so the first skippable one ends
		// the sweep: everything after it is bounded at least as low. Skipping
		// demands a STRICT bound shortfall — a partition whose bound ties the
		// kth score could hold an equal-score member with a smaller ID.
		if rank >= a.probes && top.full() && r.bound < top.worst().Score {
			break
		}
		scan(a.members[r.j])
		probed++
	}

	return top.sorted(), scanned, probed, probed == len(order)
}
