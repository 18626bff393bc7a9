package feedback

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"genedit/internal/pipeline"
)

// submitOurCase drives a session to a passing pending change.
func submitOurCase(t *testing.T, solver *Solver) *PendingChange {
	t.Helper()
	_, suite := testSolver(t, true) // only for the case lookup below
	c := ourCase(t, suite)
	sess, err := solver.OpenContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Feedback("This response queries all sports organisations but I only care about our organisations.")
	if err != nil {
		t.Fatal(err)
	}
	sess.Stage(rec.Edits...)
	if _, err := sess.RegenerateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := sess.SubmitContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed || res.Pending == nil {
		t.Fatalf("submit did not pass: %+v", res)
	}
	return res.Pending
}

// TestApproveDoesNotMutateServedSet pins the engine-swap safety contract:
// the knowledge set reachable from the pre-approval engine is bit-for-bit
// untouched by a merge — in-flight generations read a stable snapshot.
// The set is compared as JSON: the merged set shares its entities, so a
// write through one would show on both sides of a State comparison.
func TestApproveDoesNotMutateServedSet(t *testing.T) {
	solver, _ := testSolver(t, true)
	pending := submitOurCase(t, solver)

	oldEngine := solver.Engine()
	before := oldEngine.KnowledgeSet().State()
	beforeJSON, err := json.Marshal(before)
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.Approve(pending, "reviewer"); err != nil {
		t.Fatal(err)
	}
	afterJSON, err := json.Marshal(oldEngine.KnowledgeSet().State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(beforeJSON, afterJSON) {
		t.Error("approve mutated the knowledge set of the previously served engine")
	}
	if solver.Engine() == oldEngine {
		t.Error("approve should swap in a new engine")
	}
	merged := solver.Engine().KnowledgeSet()
	if merged.Version() <= before.Version {
		t.Error("merged set version did not advance")
	}
	// The merged history must extend the old one: same prefix, new tail.
	hist := merged.History()
	if len(hist) <= len(before.History) {
		t.Fatal("merged history did not grow")
	}
	for i, ev := range before.History {
		if !reflect.DeepEqual(hist[i], ev) {
			t.Fatalf("merged history rewrote event %d", i)
		}
	}
}

// TestMergeHookRunsAndCanVeto: the hook sees the new engine before the
// solver adopts it, and a hook error aborts the approval atomically.
func TestMergeHookRunsAndCanVeto(t *testing.T) {
	solver, _ := testSolver(t, true)
	pending := submitOurCase(t, solver)

	oldEngine := solver.Engine()
	boom := errors.New("store down")
	solver.SetMergeHook(func(*pipeline.Engine) error { return boom })
	if err := solver.Approve(pending, "reviewer"); !errors.Is(err, boom) {
		t.Fatalf("approve with failing hook = %v, want wrapped hook error", err)
	}
	if solver.Engine() != oldEngine {
		t.Error("failed hook must leave the old engine live")
	}
	if len(solver.Pending()) != 1 {
		t.Error("failed hook must leave the change pending")
	}

	var hooked *pipeline.Engine
	solver.SetMergeHook(func(e *pipeline.Engine) error { hooked = e; return nil })
	if err := solver.Approve(pending, "reviewer"); err != nil {
		t.Fatal(err)
	}
	if hooked == nil || hooked != solver.Engine() {
		t.Error("hook must receive the engine the solver adopts")
	}
	if len(solver.Pending()) != 0 {
		t.Error("approved change should leave the pending queue")
	}
}

// TestWithdrawDropsPendingChange: a withdrawn change leaves the pending
// list and can no longer be approved; the served engine stays as it was.
func TestWithdrawDropsPendingChange(t *testing.T) {
	solver, _ := testSolver(t, true)
	pending := submitOurCase(t, solver)
	engine := solver.Engine()
	solver.Withdraw(pending)
	solver.Withdraw(pending) // no longer pending: ignored
	if got := len(solver.Pending()); got != 0 {
		t.Fatalf("pending after withdraw = %d, want 0", got)
	}
	if err := solver.Approve(pending, "reviewer"); err == nil {
		t.Error("approving a withdrawn change should fail")
	}
	if solver.Engine() != engine {
		t.Error("withdraw must not swap the engine")
	}
}
