package genedit_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genedit"
	"genedit/internal/metrics"
	"genedit/internal/pipeline"
	"genedit/internal/simllm"
)

func testRequests(t *testing.T, suite *genedit.Benchmark, n int) []genedit.Request {
	t.Helper()
	var reqs []genedit.Request
	for _, c := range suite.Cases {
		reqs = append(reqs, genedit.Request{Database: c.DB, Question: c.Question, Evidence: c.Evidence})
		if len(reqs) == n {
			break
		}
	}
	if len(reqs) < n {
		t.Fatalf("suite has only %d cases, want %d", len(reqs), n)
	}
	return reqs
}

func TestServiceGenerate(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, genedit.WithModelSeed(42))
	req := testRequests(t, suite, 1)[0]

	resp, err := svc.Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.SQL == "" || resp.Record == nil {
		t.Fatalf("incomplete response: %+v", resp)
	}
	if resp.SQL != resp.Record.FinalSQL {
		t.Fatalf("SQL %q != Record.FinalSQL %q", resp.SQL, resp.Record.FinalSQL)
	}
	if resp.OK && resp.Failure != nil {
		t.Fatalf("OK response carries failure %v", resp.Failure)
	}

	// The service must match a directly built pipeline engine verbatim.
	kset, err := suite.BuildKnowledge(req.Database)
	if err != nil {
		t.Fatal(err)
	}
	model := simllm.New(simllm.GenEditProfile(), suite.Registry, 42)
	engine := pipeline.New(model, kset, suite.Databases[req.Database], pipeline.DefaultConfig())
	rec, err := engine.GenerateContext(context.Background(), req.Question, req.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if rec.FinalSQL != resp.SQL {
		t.Fatalf("service SQL %q != engine SQL %q", resp.SQL, rec.FinalSQL)
	}
}

func TestServiceUnknownDatabase(t *testing.T) {
	svc := genedit.NewService(genedit.NewBenchmark(1))
	_, err := svc.Generate(context.Background(), genedit.Request{Database: "nope", Question: "q"})
	if !errors.Is(err, genedit.ErrUnknownDatabase) {
		t.Fatalf("err = %v, want ErrUnknownDatabase", err)
	}
}

// TestServiceCoalescedBuild asserts that concurrent requests for the same
// database share one engine build: every caller must observe the same
// *Engine pointer.
func TestServiceCoalescedBuild(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite)
	db := svc.Databases()[0]

	const goroutines = 16
	engines := make([]*genedit.Engine, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			<-start
			e, err := svc.Engine(context.Background(), db)
			if err != nil {
				t.Error(err)
				return
			}
			engines[i] = e
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if engines[i] != engines[0] {
			t.Fatalf("goroutine %d got a different engine: builds were not coalesced", i)
		}
	}
}

// TestServiceConcurrentGenerate drives mixed Generate and GenerateBatch
// traffic against one service from many goroutines (run under -race in CI)
// and asserts every response matches the sequential answer.
func TestServiceConcurrentGenerate(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, genedit.WithWorkers(4))
	reqs := testRequests(t, suite, 24)

	// Sequential ground truth from a fresh, identically-seeded service.
	want := make([]string, len(reqs))
	ref := genedit.NewService(genedit.NewBenchmark(1))
	for i, req := range reqs {
		resp, err := ref.Generate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resp.SQL
	}

	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				for i, req := range reqs {
					resp, err := svc.Generate(context.Background(), req)
					if err != nil {
						t.Errorf("goroutine %d req %d: %v", g, i, err)
						return
					}
					if resp.SQL != want[i] {
						t.Errorf("goroutine %d req %d: SQL %q, want %q", g, i, resp.SQL, want[i])
					}
				}
				return
			}
			resps, err := svc.GenerateBatch(context.Background(), reqs)
			if err != nil {
				t.Errorf("goroutine %d batch: %v", g, err)
				return
			}
			for i, resp := range resps {
				if resp.Err != nil {
					t.Errorf("goroutine %d batch item %d: %v", g, i, resp.Err)
					continue
				}
				if resp.SQL != want[i] {
					t.Errorf("goroutine %d batch item %d: SQL %q, want %q", g, i, resp.SQL, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServiceCancellation asserts a ctx that dies mid-pipeline surfaces the
// full taxonomy: ErrCanceled plus the underlying context error, promptly.
func TestServiceCancellation(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite)
	req := testRequests(t, suite, 1)[0]

	// Warm the engine so cancellation exercises the pipeline, not the build.
	if _, err := svc.Engine(context.Background(), req.Database); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := svc.Generate(ctx, req)
	if !errors.Is(err, genedit.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to match context.Canceled too", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancellation took %s, want prompt return", d)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer dcancel()
	_, err = svc.Generate(dctx, req)
	if !errors.Is(err, genedit.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline err = %v, want ErrCanceled matching DeadlineExceeded", err)
	}
}

func TestGenerateBatchCancellation(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, genedit.WithWorkers(2))
	reqs := testRequests(t, suite, 8)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resps, err := svc.GenerateBatch(ctx, reqs)
	if !errors.Is(err, genedit.ErrCanceled) {
		t.Fatalf("batch err = %v, want ErrCanceled", err)
	}
	if len(resps) != len(reqs) {
		t.Fatalf("responses = %d, want %d", len(resps), len(reqs))
	}
	for i, resp := range resps {
		if resp.Err == nil {
			t.Errorf("item %d of a canceled batch has no error", i)
		}
	}
}

func TestServiceTrace(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	var mu sync.Mutex
	var traces []*genedit.Trace
	svc := genedit.NewService(suite, genedit.WithTrace(func(tr *genedit.Trace) {
		mu.Lock()
		traces = append(traces, tr)
		mu.Unlock()
	}))
	req := testRequests(t, suite, 1)[0]

	if _, err := svc.Generate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("trace hook fired %d times, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Database != req.Database || tr.Question != req.Question {
		t.Fatalf("trace identifies %s/%q, want %s/%q", tr.Database, tr.Question, req.Database, req.Question)
	}
	ops := make(map[string]bool)
	for _, op := range tr.Ops {
		ops[op.Op] = true
	}
	for _, want := range []string{"reformulation", "intent_classification", "example_selection", "instruction_selection", "schema_linking", "planning", "generation_loop"} {
		if !ops[want] {
			t.Errorf("trace missing operator %q (got %v)", want, tr.Ops)
		}
	}
	if tr.Total <= 0 {
		t.Errorf("trace total = %v, want > 0", tr.Total)
	}
}

func TestServicePrewarm(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, genedit.WithWorkers(4))
	if err := svc.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	// After prewarm every engine resolves without building.
	for _, db := range svc.Databases() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		if _, err := svc.Engine(ctx, db); err != nil {
			t.Errorf("engine %s after prewarm: %v", db, err)
		}
		cancel()
	}
}

func TestFailureTaxonomy(t *testing.T) {
	ge := &genedit.GenerationError{Kind: "syntax", Msg: "unexpected token"}
	if !errors.Is(ge, genedit.ErrSyntaxFailure) {
		t.Error("syntax failure should match ErrSyntaxFailure")
	}
	if errors.Is(ge, genedit.ErrExecFailure) {
		t.Error("syntax failure must not match ErrExecFailure")
	}
	ge = &genedit.GenerationError{Kind: "exec", Msg: "no such column"}
	if !errors.Is(ge, genedit.ErrExecFailure) {
		t.Error("exec failure should match ErrExecFailure")
	}
}

// expiringContext is a request context whose deadline passes after its
// first n checks: the n+1-th Err (and every later one) reports
// DeadlineExceeded. Sweeping n cancels a request at each point of the
// pipeline in turn, without depending on timing.
type expiringContext struct {
	context.Context
	checks atomic.Int32
	n      int32
	done   chan struct{}
	once   sync.Once
}

func newExpiringContext(n int) *expiringContext {
	return &expiringContext{Context: context.Background(), n: int32(n), done: make(chan struct{})}
}

func (c *expiringContext) Err() error {
	if c.checks.Add(1) <= c.n {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.DeadlineExceeded
}

func (c *expiringContext) Done() <-chan struct{} { return c.done }

// TestCanceledRequestsCountedOnce: with the generation cache on, a request
// whose deadline passes mid-pipeline counts once as canceled — the request
// counter's canceled outcome, FailureStats().Canceled and the
// genedit_failures_total canceled series agree for every database.
func TestCanceledRequestsCountedOnce(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	reg := metrics.NewRegistry()
	svc := genedit.NewService(suite, genedit.WithModelSeed(42), genedit.WithGenerationCache(256), genedit.WithMetrics(reg))
	defer svc.Close()
	reqs := testRequests(t, suite, 4)
	for _, req := range reqs {
		if _, err := svc.Engine(context.Background(), req.Database); err != nil {
			t.Fatal(err)
		}
	}

	canceled := 0
	for n := 0; n < 40; n++ {
		for i, req := range reqs {
			// A spelling of its own per request: every one is a cache miss
			// that runs the pipeline.
			req.Question = fmt.Sprintf("%s (check %d-%d)", req.Question, n, i)
			if _, err := svc.Generate(newExpiringContext(n), req); errors.Is(err, genedit.ErrCanceled) {
				canceled++
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	if canceled <= len(reqs) {
		t.Fatalf("%d requests canceled, want some canceled mid-pipeline as well as at the door", canceled)
	}

	snap := reg.Gather()
	total := 0
	for _, db := range svc.Databases() {
		outcome := snap.CounterValue("genedit_requests_total", db, "canceled")
		ledger := svc.FailureStats()[db].Canceled
		series := snap.CounterValue("genedit_failures_total", db, "canceled")
		if outcome != ledger || series != ledger {
			t.Errorf("%s: canceled requests %d, FailureStats().Canceled %d, genedit_failures_total %d; want all equal", db, outcome, ledger, series)
		}
		total += int(outcome)
	}
	if total != canceled {
		t.Errorf("request counter holds %d canceled requests, Generate returned %d", total, canceled)
	}
}
