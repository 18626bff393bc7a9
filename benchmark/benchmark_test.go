package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestPercentileRankKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		p     float64
		rank  int
		exact bool
	}{
		{1000, 0.95, 950, true},
		{1000, 0.99, 990, true},
		{999, 0.99, 989, false}, // ceil(989.01) = 990 leaves 9 beyond
		{200, 0.95, 190, true},
		{100, 0.95, 90, false},
		{100, 0.50, 50, true},
		{12, 0.95, 6, false}, // never below the median
		{1, 0.95, 1, true},
		{0, 0.95, 0, false},
	} {
		rank, exact := percentileRank(tc.n, tc.p)
		if rank != tc.rank || exact != tc.exact {
			t.Errorf("percentileRank(%d, %v) = %d, %v; want %d, %v", tc.n, tc.p, rank, exact, tc.rank, tc.exact)
		}
	}
	sorted := make([]int32, 100)
	for i := range sorted {
		sorted[i] = int32(i + 1)
	}
	if v, beyond := percentile(sorted, 0.95); v != 90 || beyond != 10 {
		t.Errorf("p95 of 1..100 = %v with %d beyond; want 90 with 10", v, beyond)
	}
	if v, beyond := percentile(sorted, 0.50); v != 50 || beyond != 50 {
		t.Errorf("p50 of 1..100 = %v with %d beyond; want 50 with 50", v, beyond)
	}
}

func TestTimingMetricsAreQuietQuartilesOverSegments(t *testing.T) {
	// Eight segments: the value two in from the best is reported, so the
	// stalled segments and the one that completed nothing (no latency: left
	// out) do not show, and neither does the one lucky segment.
	segs := []segment{
		{Ops: 200, Seconds: 2, CPUMs: 400, P50Ms: 1.0, P95Ms: 4},
		{Ops: 0, Seconds: 2},
		{Ops: 240, Seconds: 2, CPUMs: 360, P50Ms: 2.0, P95Ms: 5},
		{Ops: 220, Seconds: 2, CPUMs: 550, P50Ms: 3.0, P95Ms: 6},
		{Ops: 20, Seconds: 2, CPUMs: 180, P50Ms: 9.0, P95Ms: 90},
		{Ops: 230, Seconds: 2, CPUMs: 460, P50Ms: 2.5, P95Ms: 7},
		{Ops: 210, Seconds: 2, CPUMs: 420, P50Ms: 2.2, P95Ms: 8},
		{Ops: 100, Seconds: 2, CPUMs: 300, P50Ms: 4.0, P95Ms: 9},
		{Ops: 300, Seconds: 2, CPUMs: 390, P50Ms: 0.5, P95Ms: 3},
	}
	p := phaseResult{outcome: outcome{ops: 1520}, segs: segs, wall: 18 * time.Second, used: usage{cpu: 3060 * time.Millisecond}}
	values, samples := p.endToEnd()
	want := map[string]float64{"ops_per_s": 115, "op_p50_ms": 2, "op_p95_ms": 5, "cpu_ms_per_op": 2}
	for name, v := range want {
		if values[name] != v {
			t.Errorf("%s = %v, want %v", name, values[name], v)
		}
	}
	if samples["segments"] != 9 || samples["ops"] != 1520 {
		t.Errorf("samples = %v", samples)
	}
	if whole := p.whole(); whole["ops_per_s"] < 84.4 || whole["ops_per_s"] > 84.5 || whole["cpu_ms_per_op"] < 2.01 || whole["cpu_ms_per_op"] > 2.02 {
		t.Errorf("whole phase = %v", whole)
	}
	// Segments timed on a machine at half the reference speed read, at the
	// reference speed, twice the rate and half the latency and CPU time.
	for i := range segs {
		segs[i].CalUs = 2 * calRefUs
	}
	slow, _ := phaseResult{outcome: outcome{ops: 1520}, segs: segs}.endToEnd()
	for name, v := range want {
		scaled := v / 2
		if name == "ops_per_s" {
			scaled = v * 2
		}
		if slow[name] != scaled {
			t.Errorf("at half speed %s = %v, want %v", name, slow[name], scaled)
		}
	}
	if overSegments(nil, true, func(segment) float64 { return 1 }) != 0 {
		t.Error("no segments, no value")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of four = %v, want 2.5", m)
	}
}

func TestSegmentBounds(t *testing.T) {
	for _, tc := range []struct {
		ops, pass, slices int
		want              []int
	}{
		{100000, 1, 6, []int{0, 1, 2, 3, 4, 5, 6}}, // never finer than a slice
		{10, 1, 23, []int{0, 4, 8, 12, 16, 23}},    // never fewer than minSegments; the last takes the rest
		{6 * opsPerSegment, 1, 12, []int{0, 2, 4, 6, 8, 10, 12}},
		{60 * opsPerSegment, 10 * opsPerSegment, 12, []int{0, 2, 4, 6, 8, 10, 12}}, // a segment holds a pass
		{0, 0, 3, []int{0, 1, 2, 3}},
		{500, 1, 0, []int{0}},
	} {
		if got := segmentBounds(tc.ops, tc.pass, tc.slices); !slices.Equal(got, tc.want) {
			t.Errorf("segmentBounds(%d, %d, %d) = %v, want %v", tc.ops, tc.pass, tc.slices, got, tc.want)
		}
	}
}

func TestCalibrationKernel(t *testing.T) {
	a, b := newCalScratch(), newCalScratch()
	if allocs := testing.AllocsPerRun(10, func() { a.time() }); allocs != 0 {
		t.Errorf("the kernel allocates %v times a run: the garbage collector's state would reach it", allocs)
	}
	for i := 0; i < 11; i++ {
		b.time()
	}
	if a.sink != b.sink || a.sink == 0 {
		t.Errorf("two callers computed %x and %x over the same stretches", a.sink, b.sink)
	}
	if machineSpeed(0) != 1 || machineSpeed(2*calRefUs) != 0.5 {
		t.Error("machine speed is the reference time over the measured one, 1 without a measurement")
	}
	calUs, err := calibrateDuring(time.Millisecond, func() error {
		time.Sleep(20 * time.Millisecond)
		return os.ErrClosed
	})
	if calUs <= 0 || err != os.ErrClosed {
		t.Errorf("calibrating beside a 20 ms function: %v µs, error %v", calUs, err)
	}
}

func TestCPUAtInterpolates(t *testing.T) {
	samples := []cpuSample{{0, 10}, {100, 30}, {300, 130}}
	for at, want := range map[time.Duration]time.Duration{-5: 10, 0: 10, 50: 20, 100: 30, 200: 80, 300: 130, 400: 130} {
		if got := cpuAt(samples, at); got != want {
			t.Errorf("cpuAt(%d) = %d, want %d", at, got, want)
		}
	}
	if cpuAt(nil, 5) != 0 {
		t.Error("no samples, no CPU time")
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},    // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},   // sticks out of the parent
		{ID: 5, Parent: 3, Name: "deep", Start: 25, End: 45}, // a grandchild is not the parent's child
		{ID: 6, Parent: 1, Name: "inside b", Start: 35, End: 40},
	}
	self := selfTimes(spans)
	want := []int64{50, 20, 10, 30, 20, 5} // parent: 100 - [10,50] - [90,100]
	if !slices.Equal(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	totals := totalsByName(spans)
	if got := totals["parent"]; got != (spanTotals{count: 1, total: 100, self: 50}) {
		t.Errorf("parent totals = %+v", got)
	}
}

func TestTracerNestsAndReparents(t *testing.T) {
	tr := newTracer()
	tr.nextOp()
	root := tr.begin("root")
	call := tr.begin("call")
	tr.end(call)
	tr.end(root)
	op := tr.insert("operator", root, tr.get(call).Start-1, tr.get(call).End+1)
	tr.reparent(call, op)
	if got := tr.get(call); got.Parent != op || got.Op != 1 {
		t.Errorf("call span = %+v, want parent %d in op 1", got, op)
	}
	if got := tr.childrenOf(root); !slices.Equal(got, []int{op}) {
		t.Errorf("children of root = %v, want [%d]", got, op)
	}
	if tr.get(op).Op != 1 {
		t.Errorf("an inserted span takes its parent's op, got %d", tr.get(op).Op)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeJSONL(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var last span
	if len(lines) != 3 || json.Unmarshal([]byte(lines[2]), &last) != nil || last != tr.get(op) {
		t.Errorf("span file = %q", data)
	}
}

func TestUsageDeltas(t *testing.T) {
	before := usage{cpu: 2 * time.Second, mallocs: 1000, bytes: 1000 << 10}
	after := usage{cpu: 5 * time.Second, mallocs: 4000, bytes: 3000 << 10}
	stretch := after.sub(before)
	if stretch != (usage{cpu: 3 * time.Second, mallocs: 3000, bytes: 2000 << 10}) {
		t.Errorf("delta = %+v", stretch)
	}
	if sum := stretch.add(stretch); sum.cpu != 6*time.Second || sum.mallocs != 6000 {
		t.Errorf("two stretches = %+v", sum)
	}
	if d := tvDuration(syscall.Timeval{Sec: 3, Usec: 250000}); d != 3250*time.Millisecond {
		t.Errorf("timeval = %v", d)
	}
	p := phaseResult{outcome: outcome{ops: 1000, failed: 10, notOK: 40}, used: stretch, length: time.Second}
	values, _ := p.endToEnd()
	if values["allocs_per_op"] != 3 || values["alloc_kb_per_op"] != 2 || values["ok_share"] != 0.95 {
		t.Errorf("per-op values = %v", values)
	}
	if a, b := readUsage(), readUsage(); b.cpu < a.cpu || b.mallocs < a.mallocs || b.bytes < a.bytes {
		t.Errorf("usage went backwards: %+v then %+v", a, b)
	}
}

func TestRequestsAreAPureFunctionOfSeedAndIndex(t *testing.T) {
	perm := permutation(7, 132)
	if !slices.Equal(perm, permutation(7, 132)) {
		t.Fatal("the same seed gave two shuffles")
	}
	if slices.Equal(perm, permutation(8, 132)) {
		t.Fatal("two seeds gave the same shuffle")
	}
	sorted := slices.Clone(perm)
	slices.Sort(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("not a permutation: %v", perm)
		}
	}
	for _, i := range []int64{0, 5, 131} {
		if requestIndex(perm, i) != perm[i] || requestIndex(perm, i+132*1000) != perm[i] {
			t.Errorf("op %d does not address item %d on every pass", i, perm[i])
		}
	}
}

func TestHarnessFilesOpsUnderSegmentsOfActiveTime(t *testing.T) {
	h := newHarness(1, 2*sliceLen, 64, 1)
	if h.expired() {
		t.Fatal("expired before it began")
	}
	for !h.expired() {
		h.active(func(_ int, rec *clientRec) {
			start := time.Now()
			time.Sleep(12 * time.Millisecond)
			rec.done(start, outcome{notOK: 1})
		})
		time.Sleep(15 * time.Millisecond) // untimed work between stretches
	}
	res := h.result()
	inSegments := 0
	for _, s := range res.segs {
		inSegments += s.Ops
		if s.Seconds != sliceLen.Seconds() || s.CalUs <= 0 || s.Ops > 0 && (s.P50Ms < 12 || s.P95Ms < s.P50Ms) {
			t.Errorf("segment %+v", s)
		}
	}
	if len(res.segs) != 2 || res.ops < 2*8-1 || res.ops > 2*8+1 || res.notOK != res.ops || inSegments < res.ops-1 || inSegments > res.ops {
		t.Errorf("ops = %d (%d in %d segments, %d not ok) over %v active", res.ops, inSegments, len(res.segs), res.notOK, res.wall)
	}
	if res.wall >= time.Duration(res.ops)*15*time.Millisecond {
		t.Errorf("active time %v includes the pauses", res.wall)
	}
	if n := len(h.calibrations(0, res.wall)); n < res.ops/3 || n > res.ops || len(h.calibrations(sliceLen, sliceLen)) != 0 {
		t.Errorf("%d calibrations between %d ops of 12 ms, one due every %v", n, res.ops, calEvery)
	}
	if first, last := h.cpu[0], h.cpu[len(h.cpu)-1]; first.at != 0 || last.at != res.wall || last.cpu != res.used.cpu {
		t.Errorf("CPU samples run from %+v to %+v; the phase used %v over %v", first, last, res.used.cpu, res.wall)
	}
}

func TestWorsening(t *testing.T) {
	for _, tc := range []struct {
		a, b   float64
		better string
		want   float64
	}{
		{100, 110, "lower", 0.10},
		{100, 90, "lower", -0.10},
		{100, 90, "higher", 0.10},
		{100, 110, "higher", -0.10},
		{0, 0, "lower", 0},
	} {
		if got := worsening(tc.a, tc.b, tc.better); got < tc.want-1e-12 || got > tc.want+1e-12 {
			t.Errorf("worsening(%v, %v, %s) = %v, want %v", tc.a, tc.b, tc.better, got, tc.want)
		}
	}
}

// benchmarkFile is BENCHMARK.json as the contract defines it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkFileListsWhatTheDriverReports(t *testing.T) {
	var file benchmarkFile
	if err := readJSON("../BENCHMARK.json", &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why == "" {
			t.Errorf("workload %d: %+v, want %s with a reason", i, file.Workloads[i], w.name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the driver", len(file.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := file.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v, want %+v with a bound in (0, 0.25]", i, got, m)
		}
	}
	if len(file.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the driver", len(file.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := file.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: %+v, want %+v", i, got, m)
		}
	}
}

func TestCompareFlagsThePairOutsideItsBound(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS float64) string {
		c := combined{Workloads: make(map[string]*runRecord)}
		for _, w := range workloads {
			metrics := make(map[string]value)
			for _, m := range endToEnd {
				metrics[m.Name] = value{Value: 100, Unit: m.Unit}
			}
			if w.name == "edit_loop" {
				metrics["ops_per_s"] = value{Value: opsPerS, Unit: "ops/s"}
			}
			c.Workloads[w.name] = &runRecord{Workload: w.name, Result: result{Metrics: metrics}}
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, c); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 100), write("b.json", 99), write("c.json", 50)
	var report strings.Builder
	if ok, err := compareFiles("../BENCHMARK.json", base, same, &report); err != nil || !ok {
		t.Errorf("a 1%% difference is within every bound: ok=%v err=%v\n%s", ok, err, report.String())
	}
	report.Reset()
	ok, err := compareFiles("../BENCHMARK.json", base, slow, &report)
	if err != nil || ok {
		t.Errorf("half the throughput is outside the bound: ok=%v err=%v", ok, err)
	}
	if n := strings.Count(report.String(), "OUTSIDE"); n != 1 {
		t.Errorf("%d pairs flagged, want only edit_loop ops_per_s:\n%s", n, report.String())
	}
}
