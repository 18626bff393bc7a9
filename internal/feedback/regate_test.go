package feedback

import (
	"context"
	"errors"
	"testing"

	"genedit/internal/pipeline"
	"genedit/internal/workload"
)

// TestStaleBaseMergesKeepGoldenVerdicts: every case the full system gets
// wrong opens a session that stages one round of recommended edits, and
// every session is gated against the same knowledge versions before any is
// approved — concurrent SMEs on one daemon. The approvals then run in
// order, so most land on a version newer than the one their gate replayed.
// No merge may lose a golden verdict: an approval whose edits regress on
// the served version is refused with a *RegressionError naming both
// versions, its change is withdrawn and the served engine stays. Without
// the re-gate, 3 of the 52 merges at model seed 42 lose 4 verdicts.
func TestStaleBaseMergesKeepGoldenVerdicts(t *testing.T) {
	ctx := context.Background()
	suite := workload.NewSuite(1)
	h, err := newHarness(suite, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	_, correct, err := h.evaluate(ctx, suite.Cases)
	if err != nil {
		t.Fatal(err)
	}

	type submitted struct {
		solver *Solver
		change *PendingChange
	}
	var subs []submitted
	for _, c := range suite.Cases {
		if correct[c.ID] {
			continue
		}
		solver := h.solvers[c.DB]
		sess, err := solver.OpenContext(ctx, c.Question, c.Evidence)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := sess.Feedback(h.sme.FeedbackFor(c, sess.Record))
		if err != nil {
			t.Fatal(err)
		}
		staged, _ := h.sme.ReviewEdits(c, rec.Edits)
		if len(staged) == 0 {
			continue
		}
		sess.Stage(staged...)
		res, err := sess.SubmitContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Passed {
			subs = append(subs, submitted{solver, res.Pending})
		}
	}

	verdicts := func(s *Solver, engine *pipeline.Engine) map[string]bool {
		out := make(map[string]bool, len(s.golden))
		for _, c := range s.golden {
			rec, err := engine.GenerateContext(ctx, c.Question, c.Evidence)
			if err != nil {
				t.Fatal(err)
			}
			if out[c.ID], err = h.runner.Evaluate(c, rec.FinalSQL); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	merged, stale, refused := 0, 0, 0
	for _, sub := range subs {
		served := sub.solver.Engine()
		if served.KnowledgeSet().Version() != sub.change.GatedVersion {
			stale++
		}
		before := verdicts(sub.solver, served)
		err := sub.solver.Approve(sub.change, "reviewer")
		var regressed *RegressionError
		switch {
		case errors.As(err, &regressed):
			refused++
			if regressed.GatedVersion != sub.change.GatedVersion || regressed.ServedVersion != served.KnowledgeSet().Version() ||
				regressed.GatedVersion == regressed.ServedVersion || regressed.Detail == "" {
				t.Errorf("refusal of %s: %+v; want gated %d, served %d and a detail",
					sub.change.FeedbackID, regressed, sub.change.GatedVersion, served.KnowledgeSet().Version())
			}
			if sub.solver.Engine() != served {
				t.Errorf("refused change %s swapped the served engine", sub.change.FeedbackID)
			}
			if err := sub.solver.Approve(sub.change, "reviewer"); !errors.Is(err, ErrNotPending) {
				t.Errorf("refused change %s is still pending: %v", sub.change.FeedbackID, err)
			}
			continue
		case err != nil:
			t.Fatal(err)
		}
		merged++
		after := verdicts(sub.solver, sub.solver.Engine())
		var lost []string
		for id, ok := range before {
			if ok && !after[id] {
				lost = append(lost, id)
			}
		}
		if len(lost) > 0 {
			t.Errorf("merge of %s (gated on v%d) lost golden verdicts %v", sub.change.FeedbackID, sub.change.GatedVersion, lost)
		}
	}
	t.Logf("%d submissions passed; %d approved on a moved version; %d merged, %d refused", len(subs), stale, merged, refused)
	if refused == 0 {
		t.Error("no approval was refused: the re-gate on a moved version was not exercised")
	}
}
