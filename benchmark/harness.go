package main

import (
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genedit/internal/pipeline"
)

// harness drives closed-loop clients over a timed phase of fixed length and
// accounts for what the phase cost. A workload whose phase needs untimed
// work in the middle (edit_loop rebuilding its stores) runs it between
// several active calls: wall time, CPU and allocations accumulate over the
// active stretches only, and ops are placed on that active timeline.
type harness struct {
	clients int
	length  time.Duration
	pass    int // ops in one pass over the workload's inputs: a segment holds at least as many

	elapsed time.Duration // active time before the current stretch
	began   time.Time     // start of the current stretch
	running bool          // inside a stretch
	used    usage
	rssKB   []int32     // resident set size, sampled through the active stretches
	cpu     []cpuSample // CPU time used, sampled with it, on the active timeline
	recs    []*clientRec
	index   atomic.Int64
}

// clientRec is one client's private tally, merged after the phase.
type clientRec struct {
	h     *harness
	lat   []int32 // per-op latency in ns, saturating at MaxInt32 (2.1 s), in order of completion
	first []int32 // per slice of the active timeline: the ops filed before the first that finished in it or later
	tally outcome

	cal     []calSample   // the client's runs of the calibration kernel, in order
	calNext time.Duration // where on the active timeline the next one is due
	kernel  *calScratch
}

func newHarness(clients int, length time.Duration, expectOps, pass int) *harness {
	h := &harness{clients: clients, length: length, pass: pass}
	for i := 0; i < clients; i++ {
		// The latency buffer is touched up front so that how much of it the
		// phase fills does not show in the resident set.
		lat := make([]int32, expectOps/clients+1024)
		clear(lat)
		h.recs = append(h.recs, &clientRec{h: h, lat: lat[:0], cal: make([]calSample, 0, length/calEvery+16), kernel: newCalScratch()})
	}
	return h
}

// active runs fn once per client concurrently as one stretch of the timed
// phase and returns when every client has.
func (h *harness) active(fn func(client int, rec *clientRec)) {
	runtime.GC() // start every stretch from a collected heap, outside the clock
	before := readUsage()
	h.began, h.running = time.Now(), true
	h.cpu = append(h.cpu, cpuSample{h.elapsed, h.used.cpu})
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				h.rssKB = append(h.rssKB, residentKB())
				h.cpu = append(h.cpu, cpuSample{h.elapsed + time.Since(h.began), h.used.cpu + cpuTime() - before.cpu})
			case <-stop:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < h.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c, h.recs[c])
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	h.elapsed, h.running = h.elapsed+time.Since(h.began), false
	h.used = h.used.add(readUsage().sub(before))
	h.cpu = append(h.cpu, cpuSample{h.elapsed, h.used.cpu})
}

// sampleEvery is the sampling period of the resident set size and the CPU
// time: four samples to a slice.
const sampleEvery = sliceLen / 4

// residentKB reads the process's resident set size from /proc/self/statm
// (second field, in pages); 0 where that is not available.
func residentKB() int32 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return int32(min(pages*int64(os.Getpagesize())/1024, math.MaxInt32))
}

// expired reports whether the timed phase has run its length.
func (h *harness) expired() bool {
	if !h.running {
		return h.elapsed >= h.length
	}
	return h.elapsed+time.Since(h.began) >= h.length
}

// next hands out op indexes in one global sequence shared by the clients.
func (h *harness) next() int64 { return h.index.Add(1) - 1 }

// outcome is what one op came to, as counts so that outcomes add up: failed
// ops errored, were shed or timed out; notOK ops returned SQL that does not
// execute (modelled model error); wrong ops returned something other than
// the output pinned for their input. runs, attempts and firstOK describe the
// pipeline runs the op caused (none on a cache hit).
type outcome struct {
	ops, failed, notOK, wrong int
	runs, attempts, firstOK   int
}

func (o *outcome) add(p outcome) {
	o.ops += p.ops
	o.failed += p.failed
	o.notOK += p.notOK
	o.wrong += p.wrong
	o.runs += p.runs
	o.attempts += p.attempts
	o.firstOK += p.firstOK
}

// countRun notes one pipeline run the op caused.
func (o *outcome) countRun(rec *pipeline.Record) {
	o.runs++
	o.attempts += len(rec.Attempts)
	if len(rec.Attempts) > 0 && rec.Attempts[0].Kind == "ok" {
		o.firstOK++
	}
}

// done files one op, begun at start and finished now, under the slice of the
// active timeline it completed in.
func (r *clientRec) done(start time.Time, out outcome) {
	end := time.Now()
	at := r.h.elapsed + end.Sub(r.h.began)
	for s := int(at / sliceLen); len(r.first) <= s; {
		r.first = append(r.first, int32(len(r.lat)))
	}
	r.lat = append(r.lat, int32(min(int64(end.Sub(start)), math.MaxInt32)))
	out.ops = 1
	r.tally.add(out)
	if at >= r.calNext {
		r.calibrate()
	}
}

// calSample is one timed run of the calibration kernel, at at on the active
// timeline.
type calSample struct {
	at time.Duration
	us float64
}

// calibrate times one run of the calibration kernel, between two ops.
func (r *clientRec) calibrate() {
	at := r.h.elapsed + time.Since(r.h.began)
	r.cal = append(r.cal, calSample{at, r.kernel.time()})
	r.calNext = at + calEvery
}

// calibrations are the times of the kernel runs of every client that began in
// [from, to) of the active timeline.
func (h *harness) calibrations(from, to time.Duration) []float64 {
	var us []float64
	for _, r := range h.recs {
		lo := sort.Search(len(r.cal), func(i int) bool { return r.cal[i].at >= from })
		for _, c := range r.cal[lo:] {
			if c.at >= to {
				break
			}
			us = append(us, c.us)
		}
	}
	return us
}

// phaseResult is the merged account of a timed phase.
type phaseResult struct {
	outcome
	wall, length time.Duration
	lat          []int32   // ascending
	segs         []segment // ops finishing past the deadline count as ops but in no segment
	used         usage
	rssKB        []int32 // ascending
}

func (h *harness) result() phaseResult {
	res := phaseResult{wall: h.elapsed, length: h.length, used: h.used, rssKB: slices.Clone(h.rssKB)}
	slices.Sort(res.rssKB)
	for _, r := range h.recs {
		res.add(r.tally)
		res.lat = append(res.lat, r.lat...)
	}
	bounds := segmentBounds(res.ops, h.pass, int(h.length/sliceLen))
	wholeCal := median(h.calibrations(0, h.elapsed+1))
	var lat []int32
	for i, lo := range bounds[:len(bounds)-1] {
		hi := bounds[i+1]
		lat = lat[:0]
		for _, r := range h.recs {
			lat = append(lat, r.lat[r.filedBefore(lo):r.filedBefore(hi)]...)
		}
		slices.Sort(lat)
		from, to := time.Duration(lo)*sliceLen, time.Duration(hi)*sliceLen
		seg := segment{
			Ops:     len(lat),
			Seconds: (to - from).Seconds(),
			CPUMs:   float64(cpuAt(h.cpu, to)-cpuAt(h.cpu, from)) / 1e6,
		}
		p50, _ := percentile(lat, 0.50)
		p95, beyond := percentile(lat, 0.95)
		seg.P50Ms, seg.P95Ms, seg.beyond95 = p50/1e6, p95/1e6, beyond
		if seg.CalUs = median(h.calibrations(from, to)); seg.CalUs == 0 {
			seg.CalUs = wholeCal // a segment of ops too long to fit a calibration between them
		}
		res.segs = append(res.segs, seg)
	}
	slices.Sort(res.lat)
	return res
}

// filedBefore is how many ops the client had filed when slice s began.
func (r *clientRec) filedBefore(s int) int {
	if s < len(r.first) {
		return int(r.first[s])
	}
	return len(r.lat)
}

// whole is the four timing metrics over every op of the phase, undivided and
// as measured, and the machine speed the segments were scaled from (their
// quiet-side quartile, like the metrics).
func (p phaseResult) whole() map[string]float64 {
	p50, _ := percentile(p.lat, 0.50)
	p95, _ := percentile(p.lat, 0.95)
	return map[string]float64{
		"ops_per_s":     share(float64(p.ops), p.wall.Seconds()),
		"op_p50_ms":     p50 / 1e6,
		"op_p95_ms":     p95 / 1e6,
		"cpu_ms_per_op": share(float64(p.used.cpu)/1e6, float64(p.ops)),
		"machine_speed": overSegments(p.segs, true, func(s segment) float64 { return s.speed() }),
	}
}

// endToEnd derives the end-to-end metrics a timed phase supports; setup_s
// and ex_share are measured around it.
func (p phaseResult) endToEnd() (map[string]float64, map[string]int) {
	ops := float64(max(p.ops, 1))
	rss, beyondRSS := percentile(p.rssKB, 1)
	beyond95 := 0
	for i, s := range p.segs {
		if i == 0 || s.beyond95 < beyond95 {
			beyond95 = s.beyond95
		}
	}
	values := map[string]float64{
		"ops_per_s":       overSegments(p.segs, true, func(s segment) float64 { return float64(s.Ops) / s.Seconds / s.speed() }),
		"op_p50_ms":       overSegments(p.segs, false, func(s segment) float64 { return s.P50Ms * s.speed() }),
		"op_p95_ms":       overSegments(p.segs, false, func(s segment) float64 { return s.P95Ms * s.speed() }),
		"cpu_ms_per_op":   overSegments(p.segs, false, func(s segment) float64 { return s.CPUMs / float64(s.Ops) * s.speed() }),
		"allocs_per_op":   float64(p.used.mallocs) / ops,
		"alloc_kb_per_op": float64(p.used.bytes) / 1024 / ops,
		"peak_rss_mb":     rss / 1024,
		"ok_share":        float64(p.ops-p.failed-p.notOK) / ops,
	}
	samples := map[string]int{
		"ops":              p.ops,
		"segments":         len(p.segs),
		"op_p95_ms.beyond": beyond95, // in the segment with the fewest
		"peak_rss_mb":      len(p.rssKB),
		"peak_rss_mb.over": beyondRSS,
	}
	return values, samples
}
