package genedit_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"genedit"
	"genedit/internal/eval"
	"genedit/internal/feedback"
	"genedit/internal/kstore"
)

// faultyFeedbackRound is runFeedbackRound's fault-tolerant sibling: store
// I/O may fail mid-round, so approval errors are recorded instead of
// fatal. It returns the knowledge version of the last approval the service
// ACKNOWLEDGED — the durability floor recovery is measured against — and
// whether any injected fault surfaced.
func faultyFeedbackRound(t *testing.T, svc *genedit.Service, suite *genedit.Benchmark) (ackedVersion int, faulted bool) {
	t.Helper()
	ctx := context.Background()
	runner := eval.NewRunner(suite.Databases)
	sme := feedback.NewSimulatedSME(7)

	solver, err := svc.Solver(ctx, storeDB, goldenOf(suite))
	if err != nil {
		if errors.Is(err, kstore.ErrInjected) {
			return 0, true
		}
		t.Fatal(err)
	}
	for _, c := range dbCases(suite) {
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
		if !res.Passed {
			continue
		}
		if err := solver.Approve(res.Pending, "reviewer"); err != nil {
			// The live owner commits to the store BEFORE publishing the
			// engine: a failed approval must leave the served version
			// unchanged, never acknowledge-and-lose.
			if !errors.Is(err, kstore.ErrInjected) && !isStoreWedged(err) {
				t.Fatalf("approve failed with a non-injected error: %v", err)
			}
			faulted = true
			continue
		}
		info, err := svc.Knowledge(ctx, storeDB, 0)
		if err != nil {
			t.Fatal(err)
		}
		ackedVersion = info.Version
	}
	return ackedVersion, faulted
}

// isStoreWedged matches the store's fail-fast errors caused by an earlier
// injected fault (broken rollback, closed WAL handle).
func isStoreWedged(err error) bool {
	return err != nil && (errors.Is(err, kstore.ErrClosed) ||
		containsStr(err.Error(), "store is failed") ||
		containsStr(err.Error(), "file already closed") ||
		containsStr(err.Error(), "diverged from the durable log"))
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestServiceSurvivesStoreFaults sweeps injected store failures — clean
// errors and mid-syscall crashes at varied operation points — across a
// live feedback round, then restarts the service over the surviving disk
// state and asserts the serving-layer durability contract: no acknowledged
// approval is lost, and the recovered service's generations are
// bit-identical to an in-memory reference holding the same knowledge
// version (EX parity).
func TestServiceSurvivesStoreFaults(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	ctx := context.Background()

	// Sweep-level sanity: at least one run must actually hit a fault and at
	// least one must acknowledge an approval, or the sweep proves nothing.
	var sawFault, sawAck bool

	for _, kind := range []kstore.Fault{kstore.FaultErr, kstore.FaultCrash} {
		for _, faultOp := range []int64{2, 8, 15, 27, 40} {
			t.Run(fmt.Sprintf("%s-op%d", kind, faultOp), func(t *testing.T) {
				dir := t.TempDir()
				ffs := kstore.NewFaultFS(kstore.OSFS)
				ffs.PlanFault(faultOp, kind)

				svc := genedit.NewService(genedit.NewBenchmark(1),
					genedit.WithModelSeed(42),
					genedit.WithStorePath(dir),
					genedit.WithStoreFS(ffs),
				)
				acked, faulted := faultyFeedbackRound(t, svc, suite)
				if ffs.Injected() > 0 {
					faulted = true
				}
				sawFault = sawFault || faulted
				sawAck = sawAck || acked > 0
				svc.Close() // post-crash close errors are expected

				// Restart over the surviving disk through a clean filesystem.
				rec := genedit.NewService(genedit.NewBenchmark(1),
					genedit.WithModelSeed(42),
					genedit.WithStorePath(dir),
				)
				defer rec.Close()
				info, err := rec.Knowledge(ctx, storeDB, 0)
				if err != nil {
					t.Fatalf("recovered service knowledge: %v", err)
				}
				if info.Version < acked {
					t.Fatalf("EVENT LOSS: acknowledged version %d, recovered %d", acked, info.Version)
				}

				// EX parity: an in-memory service replayed to the same
				// version must generate identical SQL for every case. The
				// recovered version may exceed acked (a commit can land
				// durably even when its acknowledgement path faulted); parity
				// is asserted at whatever version actually recovered.
				mem := genedit.NewService(genedit.NewBenchmark(1), genedit.WithModelSeed(42))
				replayFeedbackToVersion(t, mem, suite, info.Version)
				for _, c := range dbCases(suite) {
					want, err := mem.Generate(ctx, genedit.Request{Database: storeDB, Question: c.Question, Evidence: c.Evidence})
					if err != nil {
						t.Fatal(err)
					}
					got, err := rec.Generate(ctx, genedit.Request{Database: storeDB, Question: c.Question, Evidence: c.Evidence})
					if err != nil {
						t.Fatal(err)
					}
					if got.SQL != want.SQL || got.OK != want.OK {
						t.Fatalf("case %s: recovered SQL %q (ok=%v) != reference %q (ok=%v)",
							c.ID, got.SQL, got.OK, want.SQL, want.OK)
					}
				}
			})
		}
	}
	if !sawFault {
		t.Fatal("no injected fault ever fired: the sweep exercised nothing")
	}
	if !sawAck {
		t.Fatal("no approval was ever acknowledged: the durability floor was never tested")
	}
}

// replayFeedbackToVersion drives the deterministic feedback round against
// an in-memory service, stopping once the knowledge version reaches
// target. The round is seed-fixed, so approvals land in the same order as
// the faulted run's successful ones.
func replayFeedbackToVersion(t *testing.T, svc *genedit.Service, suite *genedit.Benchmark, target int) {
	t.Helper()
	ctx := context.Background()
	if target == 0 {
		return
	}
	runner := eval.NewRunner(suite.Databases)
	sme := feedback.NewSimulatedSME(7)
	solver, err := svc.Solver(ctx, storeDB, goldenOf(suite))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range dbCases(suite) {
		info, err := svc.Knowledge(ctx, storeDB, 0)
		if err != nil {
			t.Fatal(err)
		}
		if info.Version >= target {
			return
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
	}
	info, err := svc.Knowledge(ctx, storeDB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version < target {
		t.Fatalf("reference replay reached version %d, target %d", info.Version, target)
	}
}
