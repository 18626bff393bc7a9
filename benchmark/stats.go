package main

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to repeat between runs.
const minBeyond = 10

// percentileRank returns the 1-based nearest-rank of the p-quantile (p at
// least a half) among n sorted samples, lowered until at least minBeyond samples lie beyond it but
// never below the median rank. exact reports whether the rank is the one p
// asked for.
func percentileRank(n int, p float64) (rank int, exact bool) {
	if n == 0 {
		return 0, false
	}
	want := int(math.Ceil(p * float64(n)))
	if want < 1 {
		want = 1
	}
	rank = want
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	if median := (n + 1) / 2; rank < median {
		rank = median
	}
	return rank, rank == want
}

// percentile returns the p-quantile of ascending-sorted samples under the
// percentileRank rule, and how many samples lie beyond the value reported.
func percentile(sorted []int32, p float64) (value float64, beyond int) {
	rank, _ := percentileRank(len(sorted), p)
	if rank == 0 {
		return 0, 0
	}
	return float64(sorted[rank-1]), len(sorted) - rank
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// The timed phase keeps its timeline in slices of sliceLen and is accounted in
// segments: runs of whole slices, as many as give each segment opsPerSegment
// ops (enough for a 95th percentile with minBeyond samples beyond it) and a
// whole pass over the workload's inputs, at least minSegments and at most one
// per slice. Each timing metric is computed per segment and reported at the
// quartile of the segments on the quiet side — the median of the better half:
// on a shared host other tenants only ever take the machine away, for
// stretches from a tenth of a second to tens of seconds, so the slower
// segments of a run say how busy the host was and the faster ones how fast
// the program is. A stretch of interference moves the result only once it
// covers three quarters of the phase.
const (
	sliceLen      = 100 * time.Millisecond
	opsPerSegment = 300
	minSegments   = 5
	quietQuantile = 0.25
)

// segmentBounds cuts slices slices into segments for a phase of ops ops over
// inputs that repeat every pass ops, and returns each segment's first slice,
// then slices itself: segment i is slices [b[i], b[i+1]). The last segment
// takes the slices left over.
func segmentBounds(ops, pass, slices int) []int {
	if slices <= 0 {
		return []int{0}
	}
	per := slices // slices to a segment: as many as the ops a segment must hold take
	if ops > 0 {
		per = (slices*max(opsPerSegment, pass) + ops - 1) / ops
	}
	per = max(min(per, slices/minSegments), 1)
	bounds := make([]int, 0, slices/per+1)
	for s := 0; s+per <= slices; s += per {
		bounds = append(bounds, s)
	}
	return append(bounds, slices)
}

// segment is the account of one segment of a timed phase, as measured; CalUs
// is the median time of the calibration kernel's runs inside it.
type segment struct {
	Ops      int     `json:"ops"`
	Seconds  float64 `json:"seconds"`
	CPUMs    float64 `json:"cpu_ms"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	CalUs    float64 `json:"cal_us"`
	beyond95 int
}

// overSegments is the quiet-side quartile, over the segments that completed
// an op, of what value makes of each: the value a quarter of the way in from
// the best, which is the highest when higher is better.
func overSegments(segs []segment, higherIsBetter bool, value func(segment) float64) float64 {
	var xs []float64
	for _, s := range segs {
		if s.Ops > 0 {
			xs = append(xs, value(s))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if higherIsBetter {
		slices.Reverse(xs)
	}
	return xs[int(quietQuantile*float64(len(xs)))]
}

// cpuSample is the CPU time the process had used, cpu, when the phase's
// timeline stood at at.
type cpuSample struct{ at, cpu time.Duration }

// cpuAt interpolates the samples, ascending in at, to the CPU time used at t.
func cpuAt(samples []cpuSample, t time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	i := sort.Search(len(samples), func(i int) bool { return samples[i].at >= t })
	switch i {
	case 0:
		return samples[0].cpu
	case len(samples):
		return samples[i-1].cpu
	}
	a, b := samples[i-1], samples[i]
	return a.cpu + time.Duration(float64(b.cpu-a.cpu)*float64(t-a.at)/float64(b.at-a.at))
}

// share is part/whole, 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// usage is the process's cumulative resource use: CPU from getrusage, heap
// allocation from runtime.MemStats.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, mallocs: u.mallocs - v.mallocs, bytes: u.bytes - v.bytes}
}

func (u usage) add(v usage) usage {
	return usage{cpu: u.cpu + v.cpu, mallocs: u.mallocs + v.mallocs, bytes: u.bytes + v.bytes}
}

func tvDuration(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// cpuTime is the process's user and system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return tvDuration(ru.Utime) + tvDuration(ru.Stime)
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     cpuTime(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// splitmix64 is the seed-to-stream mixer every generated input derives from.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// permutation is the seed's Fisher–Yates shuffle of [0, n).
func permutation(seed uint64, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	state := seed
	for i := n - 1; i > 0; i-- {
		state = splitmix64(state)
		j := int(state % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// requestIndex maps an op index to the item it addresses: the seed's
// permutation of n items visited round-robin, a pure function of
// (seed, index).
func requestIndex(perm []int, index int64) int {
	return perm[int(index%int64(len(perm)))]
}
