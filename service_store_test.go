package genedit_test

import (
	"context"
	"reflect"
	"testing"

	"genedit"
	"genedit/internal/eval"
	"genedit/internal/feedback"
	"genedit/internal/task"
)

const storeDB = "sports_holdings"

func dbCases(suite *genedit.Benchmark) []*task.Case {
	var out []*task.Case
	for _, c := range suite.Cases {
		if c.DB == storeDB {
			out = append(out, c)
		}
	}
	return out
}

func goldenOf(suite *genedit.Benchmark) []*genedit.Case { return suite.Golden(storeDB, 4) }

// runFeedbackRound drives one continuous-improvement round (§4.2.3) for
// storeDB through the Service API: every failed case opens an SME session,
// stages the recommended edits, regenerates, submits, and approves on a
// regression pass — up to maxSessions sessions. It returns the final
// per-case correctness of the served engine.
func runFeedbackRound(t *testing.T, svc *genedit.Service, suite *genedit.Benchmark, maxSessions int) map[string]bool {
	t.Helper()
	ctx := context.Background()
	runner := eval.NewRunner(suite.Databases)
	sme := feedback.NewSimulatedSME(7)

	solver, err := svc.Solver(ctx, storeDB, goldenOf(suite))
	if err != nil {
		t.Fatal(err)
	}
	sessions := 0
	for _, c := range dbCases(suite) {
		if sessions >= maxSessions {
			break
		}
		resp, err := svc.Generate(ctx, genedit.Request{Database: storeDB, Question: c.Question, Evidence: c.Evidence})
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := runner.Evaluate(c, resp.SQL); err != nil || ok {
			continue
		}
		sess, err := solver.OpenContext(ctx, c.Question, c.Evidence)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := sess.Feedback(sme.FeedbackFor(c, sess.Record))
		if err != nil {
			t.Fatal(err)
		}
		staged, _ := sme.ReviewEdits(c, rec.Edits)
		sess.Stage(staged...)
		regen, err := sess.RegenerateContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if fixed, err := runner.Evaluate(c, regen.FinalSQL); err != nil || !fixed {
			continue
		}
		res, err := sess.SubmitContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Passed {
			if err := solver.Approve(res.Pending, "reviewer"); err != nil {
				t.Fatal(err)
			}
		}
		sessions++
	}
	if sessions == 0 {
		t.Fatal("expected at least one feedback session (no failed cases found?)")
	}

	correct := make(map[string]bool)
	for _, c := range dbCases(suite) {
		resp, err := svc.Generate(ctx, genedit.Request{Database: storeDB, Question: c.Question, Evidence: c.Evidence})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := runner.Evaluate(c, resp.SQL)
		if err != nil {
			t.Fatal(err)
		}
		correct[c.ID] = ok
	}
	return correct
}

// TestDurableServiceMatchesInMemory is the §4.2.3-through-the-store parity
// check: the same continuous-improvement round driven through an in-memory
// service and a store-backed one produces bit-identical EX outcomes and
// knowledge state; killing the durable service and reopening its store
// recovers the exact version, history and generation behaviour.
func TestDurableServiceMatchesInMemory(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	svcMem := genedit.NewService(genedit.NewBenchmark(1), genedit.WithModelSeed(42))
	svcDur := genedit.NewService(genedit.NewBenchmark(1), genedit.WithModelSeed(42), genedit.WithStorePath(dir))

	suite := genedit.NewBenchmark(1)
	exMem := runFeedbackRound(t, svcMem, suite, 3)
	exDur := runFeedbackRound(t, svcDur, suite, 3)
	if !reflect.DeepEqual(exMem, exDur) {
		t.Errorf("EX outcomes diverge between in-memory and durable services:\n mem %v\n dur %v", exMem, exDur)
	}

	infoMem, err := svcMem.Knowledge(ctx, storeDB, -1)
	if err != nil {
		t.Fatal(err)
	}
	infoDur, err := svcDur.Knowledge(ctx, storeDB, -1)
	if err != nil {
		t.Fatal(err)
	}
	if infoMem.Version != infoDur.Version {
		t.Errorf("knowledge version: mem %d, dur %d", infoMem.Version, infoDur.Version)
	}
	if !reflect.DeepEqual(infoMem.History, infoDur.History) {
		t.Error("audit history diverges between in-memory and durable services")
	}
	if !infoDur.Persisted || infoDur.PersistedSeq != infoDur.Version {
		t.Errorf("durable service store state = %+v, want persisted through seq %d", infoDur, infoDur.Version)
	}

	// Kill and restart: a fresh service over the same store must recover
	// the exact knowledge version and history, skip the seed build, and
	// generate identical SQL for every case.
	if err := svcDur.Close(); err != nil {
		t.Fatal(err)
	}
	svcRec := genedit.NewService(genedit.NewBenchmark(1), genedit.WithModelSeed(42), genedit.WithStorePath(dir))
	defer svcRec.Close()
	infoRec, err := svcRec.Knowledge(ctx, storeDB, -1)
	if err != nil {
		t.Fatal(err)
	}
	if infoRec.Version != infoDur.Version {
		t.Errorf("recovered version %d, want %d", infoRec.Version, infoDur.Version)
	}
	if !reflect.DeepEqual(infoRec.History, infoDur.History) {
		t.Error("recovered history diverges event-for-event")
	}
	for _, c := range dbCases(suite) {
		want, err := svcMem.Generate(ctx, genedit.Request{Database: storeDB, Question: c.Question, Evidence: c.Evidence})
		if err != nil {
			t.Fatal(err)
		}
		got, err := svcRec.Generate(ctx, genedit.Request{Database: storeDB, Question: c.Question, Evidence: c.Evidence})
		if err != nil {
			t.Fatal(err)
		}
		if got.SQL != want.SQL || got.OK != want.OK {
			t.Errorf("case %s: recovered service SQL %q (ok=%v), want %q (ok=%v)", c.ID, got.SQL, got.OK, want.SQL, want.OK)
		}
	}
}

// TestApproveHotSwapsServedEngine: after an approval the service serves a
// new engine while the old engine remains fully usable for in-flight work.
func TestApproveHotSwapsServedEngine(t *testing.T) {
	ctx := context.Background()
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, genedit.WithModelSeed(42))

	before, err := svc.Engine(ctx, storeDB)
	if err != nil {
		t.Fatal(err)
	}
	versionBefore := before.KnowledgeSet().Version()

	solver, err := svc.Solver(ctx, storeDB, goldenOf(suite))
	if err != nil {
		t.Fatal(err)
	}
	runner := eval.NewRunner(suite.Databases)
	sme := feedback.NewSimulatedSME(7)
	approved := false
	for _, c := range dbCases(suite) {
		rec0, err := before.GenerateContext(ctx, c.Question, c.Evidence)
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := runner.Evaluate(c, rec0.FinalSQL); ok {
			continue
		}
		sess, err := solver.OpenContext(ctx, c.Question, c.Evidence)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := sess.Feedback(sme.FeedbackFor(c, sess.Record))
		if err != nil {
			t.Fatal(err)
		}
		staged, _ := sme.ReviewEdits(c, fb.Edits)
		sess.Stage(staged...)
		if _, err := sess.RegenerateContext(ctx); err != nil {
			t.Fatal(err)
		}
		res, err := sess.SubmitContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Passed {
			if err := solver.Approve(res.Pending, "reviewer"); err != nil {
				t.Fatal(err)
			}
			approved = true
			break
		}
	}
	if !approved {
		t.Fatal("no change was approved")
	}

	after, err := svc.Engine(ctx, storeDB)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Error("service still serves the pre-approval engine")
	}
	if after.KnowledgeSet().Version() <= versionBefore {
		t.Error("served knowledge version did not advance")
	}
	// The old engine's snapshot is untouched and still generates.
	if before.KnowledgeSet().Version() != versionBefore {
		t.Error("old engine's knowledge set was mutated by the merge")
	}
	if _, err := before.GenerateContext(ctx, "how many sports organisations are there", ""); err != nil {
		t.Errorf("old engine broken after swap: %v", err)
	}
}
