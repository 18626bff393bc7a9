package metrics

import (
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// populated builds a registry exercising every exposition feature: labeled
// and unlabeled counters, gauges, a histogram with sub-bucket/overflow
// observations, label-value escaping, and names registered out of sort
// order (to prove the writer sorts them).
func populated() *Registry {
	r := NewRegistry()
	reqs := r.Counter("test_requests_total", "Requests by db and outcome.", "db", "outcome")
	reqs.With("sports_holdings", "ok").Set(41)
	reqs.With("sports_holdings", "ok").Inc()
	reqs.With("retail_chain", "failed_sql").Set(3)
	reqs.With("retail_chain", "ok").Set(7)

	r.Counter("test_builds_total", "Unlabeled counter, registered after a later name.").With().Set(5)

	g := r.Gauge("test_queue_depth", "Gauge set per series.", "db")
	g.With("sports_holdings").Set(6.5)
	g.With("retail_chain").Set(-1)

	h := r.Histogram("test_latency_seconds", "Latency with escaping: back\\slash \"quote\"\nnewline.", []float64{0.001, 0.01, 0.1}, "db")
	h.With("weird\\db\"name\nx").Observe(0.0005)
	h.With("weird\\db\"name\nx").Observe(0.05)
	h.With("weird\\db\"name\nx").Observe(7) // +Inf overflow bucket
	h.With("plain").Observe(0.002)
	return r
}

func TestWriteTextGolden(t *testing.T) {
	var buf strings.Builder
	if err := populated().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	const golden = "testdata/golden.prom"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exposition mismatch with %s (run with -update to rewrite)\n--- got ---\n%s", golden, got)
	}
}

// TestWriteTextDeterministic asserts byte-identical output across repeated
// renders and across construction orders.
func TestWriteTextDeterministic(t *testing.T) {
	var a, b strings.Builder
	populated().WriteText(&a)
	populated().WriteText(&b)
	if a.String() != b.String() {
		t.Error("two identically-populated registries rendered differently")
	}
	var c strings.Builder
	populated().WriteText(&c)
	if a.String() != c.String() {
		t.Error("repeated render differs")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4}, "k").With("v")
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Errorf("Count = %d, want 7", got)
	}
	if got := h.Sum(); got != 112 {
		t.Errorf("Sum = %g, want 112", got)
	}
	snap := r.Gather()
	s := snap.Sample("h", "v")
	if s == nil || s.Hist == nil {
		t.Fatal("histogram sample missing from snapshot")
	}
	// le=1 admits {0.5, 1}; le=2 admits {1.5, 2}; le=4 admits {3, 4}; +Inf {100}.
	want := []uint64{2, 2, 2, 1}
	for i, w := range want {
		if s.Hist.BucketCounts[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, s.Hist.BucketCounts[i], w)
		}
	}

	// The rendered +Inf bucket must be cumulative and equal _count.
	var buf strings.Builder
	r.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, `h_bucket{k="v",le="+Inf"} 7`) {
		t.Errorf("missing cumulative +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, `h_count{k="v"} 7`) {
		t.Errorf("missing _count:\n%s", out)
	}
	if !strings.Contains(out, `h_sum{k="v"} 112`) {
		t.Errorf("missing _sum:\n%s", out)
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "help", "db")
	b := r.Counter("c", "different help is fine", "db")
	a.With("x").Inc()
	b.With("x").Inc()
	if got := a.With("x").Value(); got != 2 {
		t.Errorf("re-registered family did not share state: %d", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind mismatch did not panic")
			}
		}()
		r.Gauge("c", "", "db")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("label mismatch did not panic")
			}
		}()
		r.Counter("c", "", "tenant")
	}()
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Set(9)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments reported nonzero values")
	}
}

func TestOnScrapeBridge(t *testing.T) {
	r := NewRegistry()
	var source uint64 = 10
	bridged := r.Counter("bridged_total", "").With()
	r.OnScrape(func() { bridged.Set(source) })
	if got := r.Gather().CounterValue("bridged_total"); got != 10 {
		t.Errorf("first gather = %d, want 10", got)
	}
	source = 25
	if got := r.Gather().CounterValue("bridged_total"); got != 25 {
		t.Errorf("second gather = %d, want 25", got)
	}
}

func TestSnapshotHelpers(t *testing.T) {
	r := populated()
	snap := r.Gather()
	if got := snap.CounterValue("test_requests_total", "sports_holdings", "ok"); got != 42 {
		t.Errorf("CounterValue = %d, want 42", got)
	}
	if got := snap.CounterValue("test_requests_total", "retail_chain", "failed_sql"); got != 3 {
		t.Errorf("CounterValue(retail_chain, failed_sql) = %d, want 3", got)
	}
	if got := snap.CounterValue("test_requests_total", "sports_holdings", "failed_sql"); got != 0 {
		t.Errorf("CounterValue of an absent series = %d, want 0", got)
	}
	if got := snap.Sample("test_queue_depth", "sports_holdings").Value; got != 6.5 {
		t.Errorf("gauge sample = %g, want 6.5", got)
	}
	if snap.Family("nope") != nil || snap.Sample("nope") != nil {
		t.Error("missing family lookups must return nil")
	}
	// A snapshot is detached: mutating after Gather must not change it.
	r.Counter("test_requests_total", "", "db", "outcome").With("sports_holdings", "ok").Inc()
	if got := snap.CounterValue("test_requests_total", "sports_holdings", "ok"); got != 42 {
		t.Errorf("snapshot mutated after Gather: %d", got)
	}
}

func TestHandler(t *testing.T) {
	srv := httptest.NewServer(populated().Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want 0.0.4 exposition", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "test_requests_total") {
		t.Errorf("body missing families:\n%s", body)
	}
	post, err := srv.Client().Post(srv.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Errorf("POST = %d, want 405", post.StatusCode)
	}
}

// TestConcurrentUse hammers registration, increments and scrapes from many
// goroutines; run under -race via ci.sh.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := r.Counter("conc_total", "", "db").With(fmt.Sprintf("db%d", n%4))
			h := r.Histogram("conc_seconds", "", nil, "db").With(fmt.Sprintf("db%d", n%4))
			g := r.Gauge("conc_gauge", "").With()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) / 1000)
				g.Set(float64(j))
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.Gather()
				r.WriteText(io.Discard)
			}
		}()
	}
	wg.Wait()
	snap := r.Gather()
	for n := 0; n < 4; n++ {
		if got := snap.CounterValue("conc_total", fmt.Sprintf("db%d", n)); got != 2000 {
			t.Errorf("counter db%d = %d, want 2000", n, got)
		}
	}
	var histTotal uint64
	f := snap.Family("conc_seconds")
	for i := range f.Series {
		histTotal += f.Series[i].Hist.Count()
	}
	if histTotal != 8000 {
		t.Errorf("histogram total = %d, want 8000", histTotal)
	}
	// Every goroutine's last Set is 999, so the last Set of all is too.
	if got := snap.Sample("conc_gauge").Value; got != 999 {
		t.Errorf("gauge = %g, want 999", got)
	}
}

func TestLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("c", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

// BenchmarkCounterInc proves the tentpole's hot-path budget: a resolved
// counter increment must cost no more than a few ns/op.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "", "db").With("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "", "db").With("x")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", nil, "db").With("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}

// BenchmarkVecWith measures the labeled lookup path (read lock + map hit) —
// the cost paid by call sites that do not cache their child.
func BenchmarkVecWith(b *testing.B) {
	v := NewRegistry().Counter("bench_total", "", "db", "outcome")
	v.With("sports_holdings", "ok")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("sports_holdings", "ok").Inc()
	}
}
