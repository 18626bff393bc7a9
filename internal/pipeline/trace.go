package pipeline

import (
	"context"
	"time"
)

// OpTiming records the wall-clock duration of one inference operator within
// a single Generate call.
type OpTiming struct {
	// Op names the operator: "reformulation", "intent_classification",
	// "example_selection", "instruction_selection", "schema_linking",
	// "planning", "generation_loop".
	Op       string
	Duration time.Duration
}

// Trace is the per-request timing report delivered to a TraceFunc after a
// Generate call finishes (successfully or not).
type Trace struct {
	Question string
	Database string
	// Ops lists operator timings in execution order; operators skipped by
	// ablation switches or cut short by cancellation are absent.
	Ops []OpTiming
	// Total is the wall-clock duration of the whole Generate call.
	Total time.Duration
}

// TraceFunc observes one request's trace. Hooks must be safe for concurrent
// use when the engine serves concurrent requests; they run synchronously at
// the end of the Generate call that produced the trace.
type TraceFunc func(*Trace)

type traceKey struct{}

// WithTrace returns a context that carries fn as the per-request trace hook.
// Engine.GenerateContext invokes the hook exactly once per call with the
// operator timings. Attaching a hook never alters generation results.
func WithTrace(ctx context.Context, fn TraceFunc) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, fn)
}

func traceFrom(ctx context.Context) TraceFunc {
	fn, _ := ctx.Value(traceKey{}).(TraceFunc)
	return fn
}

// traceRecorder accumulates operator timings for one Generate call. A nil
// recorder (no hook on the context) is valid and makes every method a no-op,
// keeping the un-traced hot path allocation-free.
type traceRecorder struct {
	fn    TraceFunc
	trace Trace
	start time.Time
	done  bool
}

func newTraceRecorder(ctx context.Context, question, database string) *traceRecorder {
	fn := traceFrom(ctx)
	if fn == nil {
		return nil
	}
	return &traceRecorder{
		fn:    fn,
		trace: Trace{Question: question, Database: database},
		start: time.Now(),
	}
}

// step starts timing one operator and returns the function that records it.
func (t *traceRecorder) step(op string) func() {
	if t == nil {
		return func() {}
	}
	begin := time.Now()
	return func() {
		t.trace.Ops = append(t.trace.Ops, OpTiming{Op: op, Duration: time.Since(begin)})
	}
}

// finish delivers the trace to the hook; safe to call more than once (the
// hook fires only on the first call) and on a nil recorder.
func (t *traceRecorder) finish() {
	if t == nil || t.done {
		return
	}
	t.done = true
	t.trace.Total = time.Since(t.start)
	t.fn(&t.trace)
}
