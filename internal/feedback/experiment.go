package feedback

import (
	"context"
	"fmt"
	"strings"

	"genedit/internal/eval"
	"genedit/internal/knowledge"
	"genedit/internal/pipeline"
	"genedit/internal/simllm"
	"genedit/internal/task"
	"genedit/internal/workload"
)

// AcceptanceStats are the §4.2.3 production metrics: how many suggested
// edits are accepted as-is, and how many after iterating with the solver or
// manual knowledge-set edits.
type AcceptanceStats struct {
	Sessions          int
	AcceptedAsIs      int
	AcceptedAfterIter int
	Abandoned         int
	TotalEditsStaged  int
	MergedChanges     int
}

// String renders the stats as the experiment's report block.
func (a AcceptanceStats) String() string {
	pct := func(n int) float64 {
		if a.Sessions == 0 {
			return 0
		}
		return 100 * float64(n) / float64(a.Sessions)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "feedback sessions:            %d\n", a.Sessions)
	fmt.Fprintf(&sb, "edits accepted as-is:         %d (%.1f%%)\n", a.AcceptedAsIs, pct(a.AcceptedAsIs))
	fmt.Fprintf(&sb, "accepted after iteration:     %d (%.1f%%)\n", a.AcceptedAfterIter, pct(a.AcceptedAfterIter))
	fmt.Fprintf(&sb, "abandoned:                    %d (%.1f%%)\n", a.Abandoned, pct(a.Abandoned))
	fmt.Fprintf(&sb, "total edits staged:           %d\n", a.TotalEditsStaged)
	fmt.Fprintf(&sb, "changes merged after review:  %d\n", a.MergedChanges)
	return sb.String()
}

// RoundResult is one round of the continuous-improvement experiment.
type RoundResult struct {
	Round      int
	EX         float64
	Fixed      int
	Merged     int
	KnowledgeV int
}

// ImprovementResult is the whole improvement-loop series.
type ImprovementResult struct {
	Rounds []RoundResult
	// FinalHistoryLen is the audit-log length after the run, showing the
	// provenance trail the knowledge library exposes.
	FinalHistoryLen int
}

// String renders the series as the printable figure.
func (r ImprovementResult) String() string {
	var sb strings.Builder
	sb.WriteString("round   EX(all)   fixed-this-round   merged-edits   kset-version\n")
	for _, round := range r.Rounds {
		fmt.Fprintf(&sb, "%5d %9.2f %18d %14d %14d\n",
			round.Round, round.EX, round.Fixed, round.Merged, round.KnowledgeV)
	}
	return sb.String()
}

// experimentHarness bundles the per-database solvers for the experiments.
type experimentHarness struct {
	suite   *workload.Suite
	runner  *eval.Runner
	solvers map[string]*Solver
	sme     *SimulatedSME
}

// newHarness builds solvers over every suite database. When degraded is
// true, knowledge sets are built without the domain documents — no
// instructions — the starting point of the improvement loop.
func newHarness(suite *workload.Suite, seed uint64, degraded bool) (*experimentHarness, error) {
	model := simllm.New(simllm.GenEditProfile(), suite.Registry, seed)
	recommender := NewRecommender(model)
	h := &experimentHarness{
		suite:   suite,
		runner:  eval.NewRunner(suite.Databases),
		solvers: make(map[string]*Solver),
		sme:     NewSimulatedSME(seed ^ 0x5ee),
	}
	for _, db := range workload.DomainNames() {
		in := suite.KB[db]
		if degraded {
			in.Docs = nil
		}
		kset, err := knowledge.Build(in)
		if err != nil {
			return nil, err
		}
		engine := pipeline.New(model, kset, suite.Databases[db], pipeline.DefaultConfig())
		h.solvers[db] = NewSolver(NewLive(engine, nil), recommender, suite.Golden(db, GoldenPerDB))
	}
	return h, nil
}

// evaluate scores the harness's current engines over the eval set.
func (h *experimentHarness) evaluate(ctx context.Context, cases []*task.Case) (float64, map[string]bool, error) {
	correct := make(map[string]bool, len(cases))
	n := 0
	for _, c := range cases {
		solver := h.solvers[c.DB]
		rec, err := solver.Engine().GenerateContext(ctx, c.Question, c.Evidence)
		if err != nil {
			return 0, nil, err
		}
		ok, err := h.runner.Evaluate(c, rec.FinalSQL)
		if err != nil {
			return 0, nil, err
		}
		correct[c.ID] = ok
		if ok {
			n++
		}
	}
	return 100 * float64(n) / float64(len(cases)), correct, nil
}

// RunAcceptanceExperiment reproduces the §4.2.3 metrics: every failed case
// of the full system opens a feedback session; the simulated SME iterates up
// to maxIter times; sessions resolve as accepted-as-is (first staging fixes
// the query), accepted-after-iteration, or abandoned.
func RunAcceptanceExperiment(suite *workload.Suite, seed uint64, maxIter int) (*AcceptanceStats, error) {
	ctx := context.Background()
	h, err := newHarness(suite, seed, false)
	if err != nil {
		return nil, err
	}
	_, correct, err := h.evaluate(ctx, suite.Cases)
	if err != nil {
		return nil, err
	}

	stats := &AcceptanceStats{}
	for _, c := range suite.Cases {
		if correct[c.ID] {
			continue
		}
		solver := h.solvers[c.DB]
		sess, err := solver.OpenContext(ctx, c.Question, c.Evidence)
		if err != nil {
			return nil, err
		}
		stats.Sessions++

		resolved := false
		manualUsed := false
		for iter := 0; iter < maxIter; iter++ {
			rec, err := sess.Feedback(h.sme.FeedbackFor(c, sess.Record))
			if err != nil {
				return nil, err
			}
			// Iterations build on earlier staged edits (the paper's UI keeps
			// staged edits applied while the user keeps iterating).
			staged, manual := h.sme.ReviewEdits(c, rec.Edits)
			manualUsed = manualUsed || manual
			sess.Stage(staged...)
			stats.TotalEditsStaged += len(staged)
			regen, err := sess.RegenerateContext(ctx)
			if err != nil {
				return nil, err
			}
			fixed, err := h.runner.Evaluate(c, regen.FinalSQL)
			if err != nil {
				return nil, err
			}
			if h.sme.Satisfied(c, iter, fixed) {
				if iter == 0 && !manualUsed {
					stats.AcceptedAsIs++
				} else {
					stats.AcceptedAfterIter++
				}
				res, err := sess.SubmitContext(ctx)
				if err != nil {
					return nil, err
				}
				if res.Passed {
					if err := solver.Approve(res.Pending, "reviewer"); err != nil {
						return nil, err
					}
					stats.MergedChanges++
				}
				resolved = true
				break
			}
		}
		if !resolved {
			stats.Abandoned++
		}
	}
	return stats, nil
}

// RunImprovementExperiment reproduces the continuous-improvement loop: the
// system starts with a degraded knowledge set (no instructions — the state
// before any SME feedback), and each round routes failed cases through the
// feedback solver, merging approved edits. EX climbs as the knowledge set
// absorbs the feedback.
func RunImprovementExperiment(suite *workload.Suite, seed uint64, rounds, sessionsPerRound int) (*ImprovementResult, error) {
	ctx := context.Background()
	h, err := newHarness(suite, seed, true)
	if err != nil {
		return nil, err
	}

	result := &ImprovementResult{}
	for round := 0; round <= rounds; round++ {
		ex, correct, err := h.evaluate(ctx, suite.Cases)
		if err != nil {
			return nil, err
		}
		rr := RoundResult{Round: round, EX: ex}
		for _, solver := range h.solvers {
			rr.KnowledgeV += solver.Engine().KnowledgeSet().Version()
		}
		if round == rounds {
			result.Rounds = append(result.Rounds, rr)
			break
		}

		// Route a batch of failed cases through the feedback solver.
		sessions := 0
		for _, c := range suite.Cases {
			if correct[c.ID] || sessions >= sessionsPerRound {
				continue
			}
			solver := h.solvers[c.DB]
			sess, err := solver.OpenContext(ctx, c.Question, c.Evidence)
			if err != nil {
				return nil, err
			}
			recd, err := sess.Feedback(h.sme.FeedbackFor(c, sess.Record))
			if err != nil {
				return nil, err
			}
			staged, _ := h.sme.ReviewEdits(c, recd.Edits)
			sess.Stage(staged...)
			regen, err := sess.RegenerateContext(ctx)
			if err != nil {
				return nil, err
			}
			fixed, err := h.runner.Evaluate(c, regen.FinalSQL)
			if err != nil {
				return nil, err
			}
			if !fixed {
				continue // SME abandons; nothing merged
			}
			rr.Fixed++
			res, err := sess.SubmitContext(ctx)
			if err != nil {
				return nil, err
			}
			if res.Passed {
				if err := solver.Approve(res.Pending, "reviewer"); err != nil {
					return nil, err
				}
				rr.Merged += len(res.Pending.Edits)
			}
			sessions++
		}
		result.Rounds = append(result.Rounds, rr)
	}
	for _, solver := range h.solvers {
		result.FinalHistoryLen += len(solver.Engine().KnowledgeSet().History())
	}
	return result, nil
}
