package eval

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"genedit/internal/generr"
	"genedit/internal/task"
)

// ctxSystem counts how many cases saw a live context vs a dead one.
type ctxSystem struct {
	inner System
	live  atomic.Int64
	dead  atomic.Int64
}

func (s *ctxSystem) Name() string { return s.inner.Name() }

func (s *ctxSystem) Generate(c *task.Case) (string, error) {
	return s.inner.Generate(c)
}

func (s *ctxSystem) GenerateContext(ctx context.Context, c *task.Case) (string, error) {
	if err := generr.FromContext(ctx); err != nil {
		s.dead.Add(1)
		return "", err
	}
	s.live.Add(1)
	return s.inner.Generate(c)
}

func TestRunContextMatchesRun(t *testing.T) {
	sys := &stubSystem{name: "stub"}
	r, cases := runnerFixture(40)
	want, err := r.RunContext(context.Background(), sys, cases)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.RunContext(context.Background(), sys, cases)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("outcomes = %d, want %d", len(got.Outcomes), len(want.Outcomes))
	}
	for i := range got.Outcomes {
		if got.Outcomes[i].SQL != want.Outcomes[i].SQL || got.Outcomes[i].Correct != want.Outcomes[i].Correct {
			t.Fatalf("outcome %d differs: %+v vs %+v", i, got.Outcomes[i], want.Outcomes[i])
		}
	}
}

func TestRunContextCanceled(t *testing.T) {
	r, cases := runnerFixture(40)
	r.SetWorkers(2)
	wrapped := &ctxSystem{inner: &stubSystem{name: "stub"}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.RunContext(ctx, wrapped, cases)
	if !errors.Is(err, generr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to match context.Canceled", err)
	}
	if n := wrapped.live.Load(); n != 0 {
		t.Fatalf("%d cases ran with a live ctx after cancellation", n)
	}
}

func TestForEachDispatchStopsOnCancel(t *testing.T) {
	var ran atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ForEach(ctx, 4, 1000, func(i int) { ran.Add(1) })
	// At most the workers' already-dequeued indices run; with a pre-canceled
	// ctx nothing should be dispatched at all.
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d indices ran after pre-canceled ctx", n)
	}
}

func TestForEachCompletesAllWithoutCancel(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var ran atomic.Int64
		ForEach(context.Background(), workers, 100, func(i int) { ran.Add(1) })
		if n := ran.Load(); n != 100 {
			t.Fatalf("workers=%d: ran %d of 100", workers, n)
		}
	}
}
