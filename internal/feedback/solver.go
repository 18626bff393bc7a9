package feedback

import (
	"context"
	"fmt"
	"sync"

	"genedit/internal/eval"
	"genedit/internal/generr"
	"genedit/internal/knowledge"
	"genedit/internal/pipeline"
	"genedit/internal/sqlexec"
	"genedit/internal/task"
)

// Solver is the feedback-solver workflow of §4.2.1: it owns the live engine
// for one database, opens feedback sessions, regression-tests submitted
// edits and merges them on approval. Every merge checkpoints the knowledge
// set first, so any prior state can be restored via the knowledge library.
//
// Concurrency contract: Solver methods are safe for concurrent use (the
// serving daemon drives many SME sessions against one solver). A merge
// never mutates the currently served knowledge set: Approve applies the
// edits to a full clone and atomically swaps the engine, so in-flight
// generations keep reading their immutable snapshot. Session values are
// NOT synchronized — each feedback session is single-user by design.
type Solver struct {
	recommender *Recommender
	golden      []*task.Case
	// exec runs the regression gate's gold and predicted SQL. One executor
	// for the solver's lifetime (merges never change the database), so a
	// gate compiles each statement at most once and later gates find the
	// gold SQL already in its statement cache.
	exec *sqlexec.Executor

	mu     sync.Mutex
	engine *pipeline.Engine
	// pending holds submitted changes awaiting human approval.
	pending []*PendingChange
	nextFB  int
	// mergeHook, when set, runs after a merge is assembled but before it is
	// adopted; the serving layer uses it to persist the merged events and
	// hot-swap the service's engine. An error aborts the approval.
	mergeHook func(*pipeline.Engine) error
}

// NewSolver builds a solver around a live engine. The golden cases are the
// regression suite replayed before merges.
func NewSolver(engine *pipeline.Engine, recommender *Recommender, golden []*task.Case) *Solver {
	return &Solver{engine: engine, recommender: recommender, golden: golden, exec: sqlexec.New(engine.Database())}
}

// SetMergeHook installs fn to run on every approved merge with the new
// live engine (rebuilt over the merged knowledge set) before the solver
// adopts it. The serving layer hooks persistence (kstore.Commit) and
// engine hot-swap here; if fn errors the approval fails and the previous
// engine stays live.
func (s *Solver) SetMergeHook(fn func(*pipeline.Engine) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeHook = fn
}

// Engine returns the current live engine (it changes after merges).
func (s *Solver) Engine() *pipeline.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine
}

// Pending lists changes that passed regression and await approval.
func (s *Solver) Pending() []*PendingChange {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*PendingChange(nil), s.pending...)
}

// Session is one interactive feedback exchange on one question.
type Session struct {
	solver     *Solver
	FeedbackID string
	Question   string
	Evidence   string
	// Record is the latest generation (initial or regenerated).
	Record *pipeline.Record
	// Staged are the currently staged edits.
	Staged []knowledge.Edit
	// Iterations counts feedback rounds in this session.
	Iterations int
	// LastRecommendation is the most recent operator output.
	LastRecommendation *Recommendation
}

// OpenContext generates the initial SQL for a question and starts a session.
// Cancellation propagates into the generation pipeline; a canceled ctx
// returns an error matching generr.ErrCanceled.
func (s *Solver) OpenContext(ctx context.Context, question, evidence string) (*Session, error) {
	rec, err := s.Engine().GenerateContext(ctx, question, evidence)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.nextFB++
	id := fmt.Sprintf("fb-%03d", s.nextFB)
	s.mu.Unlock()
	return &Session{
		solver:     s,
		FeedbackID: id,
		Question:   question,
		Evidence:   evidence,
		Record:     rec,
	}, nil
}

// Feedback submits user feedback text, producing recommended edits
// (feedback operators 1-4).
func (sess *Session) Feedback(text string) (*Recommendation, error) {
	sess.Iterations++
	rec, err := sess.solver.recommender.Recommend(sess.Record, text)
	if err != nil {
		return nil, err
	}
	sess.LastRecommendation = rec
	return rec, nil
}

// Stage accepts a subset of recommended (or manually written) edits into
// the session's staging set.
func (sess *Session) Stage(edits ...knowledge.Edit) {
	sess.Staged = append(sess.Staged, edits...)
}

// RegenerateContext re-runs generation in a staging environment: the live
// knowledge set plus the staged edits. The staged-engine generation aborts
// mid-pipeline once ctx is done.
func (sess *Session) RegenerateContext(ctx context.Context) (*pipeline.Record, error) {
	live := sess.solver.Engine()
	staged, err := live.KnowledgeSet().Stage(sess.Staged, "sme", sess.FeedbackID)
	if err != nil {
		return nil, err
	}
	stagedEngine := live.WithKnowledge(staged)
	rec, err := stagedEngine.GenerateContext(ctx, sess.Question, sess.Evidence)
	if err != nil {
		return nil, err
	}
	sess.Record = rec
	return rec, nil
}

// PendingChange is a submitted set of edits that passed regression testing
// and awaits human approval (§4.2.1: "Currently, these staged edits require
// human approval after passing regression testing").
type PendingChange struct {
	FeedbackID string
	// Editor identifies the submitting actor ("sme" for interactive
	// sessions, "miner" for auto-mined candidates); it becomes the staged
	// provenance tag during regression testing.
	Editor string
	Edits  []knowledge.Edit
	// RegressionPassed and RegressionDetail record the gate outcome.
	RegressionPassed bool
	RegressionDetail string
}

// SubmitResult reports the submission outcome.
type SubmitResult struct {
	Passed  bool
	Detail  string
	Pending *PendingChange
}

// SubmitContext closes the session's iteration loop: the staged edits run
// through the regression suite; on pass, a pending change is queued for
// approval. The golden-suite replay checks ctx between cases and aborts
// mid-generation once ctx is done, returning an error matching
// generr.ErrCanceled.
func (sess *Session) SubmitContext(ctx context.Context) (*SubmitResult, error) {
	if len(sess.Staged) == 0 {
		return nil, fmt.Errorf("nothing staged to submit")
	}
	return sess.solver.submitEdits(ctx, sess.FeedbackID, "sme", sess.Staged)
}

// SubmitCandidate runs programmatically assembled edits — auto-mined
// candidates from the failure miner — through the same regression gate as
// interactive SME sessions. The editor string tags the staged provenance
// (and, via Approve, the merged events), so the audit trail distinguishes
// mined knowledge from human edits while holding both to the same replay
// bar. On pass the change is queued as pending under feedbackID.
func (s *Solver) SubmitCandidate(ctx context.Context, feedbackID, editor string, edits []knowledge.Edit) (*SubmitResult, error) {
	if len(edits) == 0 {
		return nil, fmt.Errorf("no edits to submit")
	}
	return s.submitEdits(ctx, feedbackID, editor, edits)
}

// submitEdits is the shared submission path: regression-gate the edits and
// queue a pending change when they pass.
func (s *Solver) submitEdits(ctx context.Context, feedbackID, editor string, edits []knowledge.Edit) (*SubmitResult, error) {
	passed, detail, err := s.regressionTest(ctx, edits, feedbackID, editor)
	if err != nil {
		return nil, err
	}
	res := &SubmitResult{Passed: passed, Detail: detail}
	if passed {
		p := &PendingChange{
			FeedbackID:       feedbackID,
			Editor:           editor,
			Edits:            append([]knowledge.Edit(nil), edits...),
			RegressionPassed: true,
			RegressionDetail: detail,
		}
		s.mu.Lock()
		s.pending = append(s.pending, p)
		s.mu.Unlock()
		res.Pending = p
	}
	return res, nil
}

// regressionTest replays the golden suite on the live engine and on a
// staged engine; edits pass when no golden case regresses from correct to
// incorrect.
func (s *Solver) regressionTest(ctx context.Context, edits []knowledge.Edit, feedbackID, editor string) (bool, string, error) {
	live := s.Engine()
	staged, err := live.KnowledgeSet().Stage(edits, editor, feedbackID)
	if err != nil {
		return false, "", err
	}
	// Each case's gold SQL executes once per gate: the live pass fills
	// golds, the staged pass compares against the same results.
	golds := make([]*sqlexec.Result, len(s.golden))
	before, err := s.runGolden(ctx, live, golds)
	if err != nil {
		return false, "", err
	}
	after, err := s.runGolden(ctx, live.WithKnowledge(staged), golds)
	if err != nil {
		return false, "", err
	}
	var regressed []string
	for id, ok := range before {
		if ok && !after[id] {
			regressed = append(regressed, id)
		}
	}
	if len(regressed) > 0 {
		return false, fmt.Sprintf("regressions on %d golden case(s): %v", len(regressed), regressed), nil
	}
	improved := 0
	for id, ok := range after {
		if ok && !before[id] {
			improved++
		}
	}
	return true, fmt.Sprintf("no regressions; %d golden case(s) improved", improved), nil
}

// runGolden evaluates the golden suite on one engine, returning per-case
// correctness. golds, parallel to the suite, holds the gold results: a nil
// entry is executed (and stored) at the point the case is reached, so a
// failing gold statement surfaces exactly where it did when every pass ran
// it. Cancellation is checked between cases and inside each generation.
func (s *Solver) runGolden(ctx context.Context, engine *pipeline.Engine, golds []*sqlexec.Result) (map[string]bool, error) {
	out := make(map[string]bool, len(s.golden))
	for i, c := range s.golden {
		if err := generr.FromContext(ctx); err != nil {
			return nil, err
		}
		rec, err := engine.GenerateContext(ctx, c.Question, c.Evidence)
		if err != nil {
			return nil, err
		}
		if golds[i] == nil {
			gold, err := s.exec.Query(c.GoldSQL)
			if err != nil {
				return nil, fmt.Errorf("golden case %s: gold SQL failed: %w", c.ID, err)
			}
			golds[i] = gold
		}
		pred, err := s.exec.Query(rec.FinalSQL)
		if err != nil {
			out[c.ID] = false
			continue
		}
		out[c.ID] = eval.ResultsEqual(golds[i], pred)
	}
	return out, nil
}

// Approve merges a pending change into the next generation of the
// knowledge set. A checkpoint is recorded first so the change can be
// reverted from the knowledge library.
//
// Engine-swap safety: the merge is applied to a full clone (content,
// history and checkpoints) of the live set — the set reachable from the
// currently served engine is never written. The rebuilt engine (indices
// re-derived via WithKnowledge) is first offered to the merge hook, which
// persists the new events and hot-swaps any external registry; only then
// does the solver adopt it. In-flight generations keep their old engine
// and knowledge snapshot throughout.
func (s *Solver) Approve(p *PendingChange, approver string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	found := -1
	for i, q := range s.pending {
		if q == p {
			found = i
			break
		}
	}
	if found < 0 {
		return fmt.Errorf("change %s is not pending", p.FeedbackID)
	}
	merged := s.engine.KnowledgeSet().CloneFull()
	merged.Checkpoint("before-" + p.FeedbackID)
	for _, e := range p.Edits {
		if err := merged.Apply(e, approver, p.FeedbackID); err != nil {
			return fmt.Errorf("merging %s: %w", e.Describe(), err)
		}
	}
	// Rebuild retrieval indices over the merged set.
	next := s.engine.WithKnowledge(merged)
	if s.mergeHook != nil {
		if err := s.mergeHook(next); err != nil {
			return fmt.Errorf("merge %s: %w", p.FeedbackID, err)
		}
	}
	s.engine = next
	s.pending = append(s.pending[:found], s.pending[found+1:]...)
	return nil
}
