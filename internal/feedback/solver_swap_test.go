package feedback

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"genedit/internal/knowledge"
)

// submitOurCase drives a session to a passing pending change.
func submitOurCase(t *testing.T, solver *Solver) *Session {
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
	return sess
}

// TestApproveDoesNotMutateServedSet pins the engine-swap safety contract:
// the knowledge set reachable from the pre-approval engine is bit-for-bit
// untouched by a merge — in-flight generations read a stable snapshot.
// The set is compared as JSON: the merged set shares its entities, so a
// write through one would show on both sides of a State comparison.
func TestApproveDoesNotMutateServedSet(t *testing.T) {
	solver, _ := testSolver(t, true)
	pending := submitOurCase(t, solver).Pending

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

// TestMergeHookRunsAndCanVeto: the owner's persist function sees the merged
// set before its engine is served, and a persist error aborts the approval
// atomically — the served engine and the pending change stay as they were.
func TestMergeHookRunsAndCanVeto(t *testing.T) {
	base, _ := testSolver(t, true)
	boom := errors.New("store down")
	persistErr := boom
	var persisted *knowledge.Set
	live := NewLive(base.Engine(), func(merged *knowledge.Set) error {
		if persistErr != nil {
			return persistErr
		}
		persisted = merged
		return nil
	})
	solver := NewSolver(live, base.recommender, base.golden)
	pending := submitOurCase(t, solver).Pending

	oldEngine := solver.Engine()
	if err := solver.Approve(pending, "reviewer"); !errors.Is(err, boom) {
		t.Fatalf("approve with failing persist = %v, want wrapped persist error", err)
	}
	if solver.Engine() != oldEngine || live.Engine() != oldEngine {
		t.Error("failed persist must leave the old engine served")
	}

	// Still pending: the retry merges it.
	persistErr = nil
	if err := solver.Approve(pending, "reviewer"); err != nil {
		t.Fatalf("approve after a failed persist = %v; the change must stay pending", err)
	}
	if persisted == nil || persisted != solver.Engine().KnowledgeSet() {
		t.Error("persist must receive the set of the engine the owner serves")
	}
	if err := solver.Approve(pending, "reviewer"); !errors.Is(err, ErrNotPending) {
		t.Errorf("approving a merged change = %v, want ErrNotPending", err)
	}
}

// TestWithdrawDropsPendingChange: a withdrawn change is no longer pending
// and can no longer be approved; the served engine stays as it was.
func TestWithdrawDropsPendingChange(t *testing.T) {
	solver, _ := testSolver(t, true)
	sess := submitOurCase(t, solver)
	engine := solver.Engine()
	if !sess.Withdraw() {
		t.Fatal("withdraw of a pending change reported nothing pending")
	}
	if sess.Withdraw() {
		t.Error("a second withdraw found the change still pending")
	}
	if err := solver.Approve(sess.Pending, "reviewer"); !errors.Is(err, ErrNotPending) {
		t.Errorf("approving a withdrawn change = %v, want ErrNotPending", err)
	}
	if solver.Engine() != engine {
		t.Error("withdraw must not swap the engine")
	}
}

// TestResubmitReplacesPendingChange: a session submitted twice leaves one
// pending change, its latest: the first is withdrawn, the latest merges
// once.
func TestResubmitReplacesPendingChange(t *testing.T) {
	solver, suite := testSolver(t, true)
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
	var first, last *PendingChange
	for i := 0; i < 2; i++ {
		res, err := sess.SubmitContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed || res.Pending == nil {
			t.Fatalf("submit %d did not pass: %+v", i, res)
		}
		if first == nil {
			first = res.Pending
		}
		last = res.Pending
	}
	if sess.Pending != last || first == last {
		t.Fatal("the session's pending change is not its latest submission")
	}
	if err := solver.Approve(first, "reviewer"); !errors.Is(err, ErrNotPending) {
		t.Fatalf("approving the replaced submission = %v, want ErrNotPending", err)
	}
	if err := solver.Approve(last, "reviewer"); err != nil {
		t.Fatal(err)
	}
	if err := solver.Approve(last, "reviewer"); !errors.Is(err, ErrNotPending) {
		t.Fatalf("approving the merged submission again = %v, want ErrNotPending", err)
	}
}

// TestDuplicateInsertIsWithdrawnOnApprove: two sessions gated on one
// version insert the same instruction ID. The first approval merges; the
// second no longer applies to the served set, so it is refused with
// ErrNoLongerApplies and withdrawn rather than left pending for retries
// that can never succeed. The served engine stays the first merge's.
func TestDuplicateInsertIsWithdrawnOnApprove(t *testing.T) {
	solver, suite := testSolver(t, false)
	c := ourCase(t, suite)
	ctx := context.Background()
	var sessions []*Session
	for i := 0; i < 2; i++ {
		sess, err := solver.OpenContext(ctx, c.Question, c.Evidence)
		if err != nil {
			t.Fatal(err)
		}
		sess.Stage(knowledge.Edit{Op: knowledge.EditInsert, Kind: knowledge.InstructionEntity,
			Instruction: &knowledge.Instruction{ID: "ins-same", Text: "note"}})
		res, err := sess.SubmitContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed || res.Pending == nil {
			t.Fatalf("submit %d did not pass: %+v", i, res)
		}
		sessions = append(sessions, sess)
	}
	if err := solver.Approve(sessions[0].Pending, "reviewer"); err != nil {
		t.Fatal(err)
	}
	engine := solver.Engine()
	err := solver.Approve(sessions[1].Pending, "reviewer")
	if !errors.Is(err, ErrNoLongerApplies) {
		t.Fatalf("approving the duplicate insert = %v, want ErrNoLongerApplies", err)
	}
	if sessions[1].Withdraw() {
		t.Error("the refused change is still pending")
	}
	if err := solver.Approve(sessions[1].Pending, "reviewer"); !errors.Is(err, ErrNotPending) {
		t.Errorf("approving the refused change again = %v, want ErrNotPending", err)
	}
	if solver.Engine() != engine {
		t.Error("a refused approval swapped the engine")
	}
}
