package pipeline

import (
	"context"
	"errors"
	"testing"
	"time"

	"genedit/internal/generr"
)

func TestGenerateContextCanceled(t *testing.T) {
	engine, suite := testEngine(t, DefaultConfig())
	c := caseByID(t, suite, "sports_holdings-s-list-1")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := engine.GenerateContext(ctx, c.Question, c.Evidence)
	if !errors.Is(err, generr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to unwrap to context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("canceled generation took %s, want prompt abort", d)
	}
}

func TestGenerateContextDeadline(t *testing.T) {
	engine, suite := testEngine(t, DefaultConfig())
	c := caseByID(t, suite, "sports_holdings-s-list-1")

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	_, err := engine.GenerateContext(ctx, c.Question, c.Evidence)
	if !errors.Is(err, generr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled matching DeadlineExceeded", err)
	}
}

// TestGenerateContextMatchesGenerate proves the ctx/trace plumbing never
// changes what a completed generation produces.
func TestGenerateContextMatchesGenerate(t *testing.T) {
	engine, suite := testEngine(t, DefaultConfig())
	c := caseByID(t, suite, "sports_holdings-s-list-1")

	plain, err := engine.GenerateContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	traced, err := engine.GenerateContext(WithTrace(ctx, func(*Trace) {}), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if plain.FinalSQL != traced.FinalSQL || plain.OK != traced.OK {
		t.Fatalf("ctx/trace plumbing changed the result: %q vs %q", plain.FinalSQL, traced.FinalSQL)
	}
}

func TestTraceReportsOperatorTimings(t *testing.T) {
	engine, suite := testEngine(t, DefaultConfig())
	c := caseByID(t, suite, "sports_holdings-s-list-1")

	var got *Trace
	ctx := WithTrace(context.Background(), func(tr *Trace) { got = tr })
	if _, err := engine.GenerateContext(ctx, c.Question, c.Evidence); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("trace hook not invoked")
	}
	wantOrder := []string{"reformulation", "intent_classification", "example_selection", "instruction_selection", "schema_linking", "planning", "generation_loop"}
	if len(got.Ops) != len(wantOrder) {
		t.Fatalf("ops = %v, want %d operators", got.Ops, len(wantOrder))
	}
	for i, op := range got.Ops {
		if op.Op != wantOrder[i] {
			t.Errorf("op %d = %q, want %q", i, op.Op, wantOrder[i])
		}
		if op.Duration < 0 {
			t.Errorf("op %q has negative duration", op.Op)
		}
	}
}

func TestTraceSkipsAblatedOperators(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableInstructions = true
	cfg.DisablePlanning = true
	engine, suite := testEngine(t, cfg)
	c := caseByID(t, suite, "sports_holdings-s-list-1")

	var got *Trace
	ctx := WithTrace(context.Background(), func(tr *Trace) { got = tr })
	if _, err := engine.GenerateContext(ctx, c.Question, c.Evidence); err != nil {
		t.Fatal(err)
	}
	for _, op := range got.Ops {
		switch op.Op {
		case "instruction_selection", "planning":
			t.Errorf("ablated operator %q appears in trace", op.Op)
		}
	}
}

func TestRecordFailureClassification(t *testing.T) {
	okRec := &Record{OK: true}
	if okRec.Failure() != nil {
		t.Error("OK record must have nil Failure")
	}

	rec := &Record{
		FinalSQL: "SELEC broken",
		Attempts: []Attempt{{SQL: "SELEC broken", Kind: "syntax", Err: "syntax error near SELEC"}},
	}
	f := rec.Failure()
	if f == nil || !errors.Is(f, ErrSyntaxFailure) {
		t.Fatalf("failure = %v, want syntax classification", f)
	}
	if errors.Is(f, ErrExecFailure) {
		t.Error("syntax failure must not match ErrExecFailure")
	}

	rec = &Record{
		FinalSQL: "SELECT x FROM t",
		Attempts: []Attempt{{SQL: "SELECT x FROM t", Kind: "exec", Err: "unknown column x"}},
	}
	if f := rec.Failure(); f == nil || !errors.Is(f, ErrExecFailure) {
		t.Fatalf("failure = %v, want exec classification", f)
	}
}
