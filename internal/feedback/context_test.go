package feedback

import (
	"context"
	"errors"
	"testing"

	"genedit/internal/generr"
)

func TestOpenContextCanceled(t *testing.T) {
	solver, suite := testSolver(t, true)
	c := ourCase(t, suite)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := solver.OpenContext(ctx, c.Question, c.Evidence)
	if !errors.Is(err, generr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestSubmitContextCanceled(t *testing.T) {
	solver, suite := testSolver(t, true)
	c := ourCase(t, suite)
	sess, err := solver.OpenContext(context.Background(), c.Question, "")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Feedback("This response queries all sports organisations but I only care about our organisations.")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Edits) == 0 {
		t.Fatal("no recommended edits to stage")
	}
	sess.Stage(rec.Edits...)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.SubmitContext(ctx); !errors.Is(err, generr.ErrCanceled) {
		t.Fatalf("SubmitContext err = %v, want ErrCanceled", err)
	}
	if _, err := sess.RegenerateContext(ctx); !errors.Is(err, generr.ErrCanceled) {
		t.Fatalf("RegenerateContext err = %v, want ErrCanceled", err)
	}

	// The same submission succeeds once the context is live again.
	res, err := sess.SubmitContext(context.Background())
	if err != nil {
		t.Fatalf("Submit after canceled attempt: %v", err)
	}
	if !res.Passed {
		t.Fatalf("submission failed regression: %s", res.Detail)
	}
}
