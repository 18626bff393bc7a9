package feedback

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"genedit/internal/eval"
	"genedit/internal/generr"
	"genedit/internal/knowledge"
	"genedit/internal/pipeline"
	"genedit/internal/sqlexec"
	"genedit/internal/task"
)

// Live is the one owner of a database's served engine. Every Solver on the
// database is a view on it, so a merge approved through any of them — an SME
// session, the failure miner, an experiment — builds on every merge before
// it, and the knowledge versions form one line. Readers take the engine with
// one atomic load; a merge holds mu from its clone of the served set to the
// publish of the engine built over it, so no two merges branch from one
// state.
type Live struct {
	engine atomic.Pointer[pipeline.Engine]
	mu     sync.Mutex
	// persist, when set, makes a merged set durable before it is served;
	// an error aborts the merge with the old engine still served.
	persist func(*knowledge.Set) error
	// exec runs the regression gates' gold and predicted SQL. Merges never
	// change the database, so one executor serves every gate on it, and
	// later gates find the gold SQL already in its statement cache.
	exec *sqlexec.Executor
}

// NewLive starts serving engine. persist, when non-nil, runs on every merged
// knowledge set before the engine built over it is served (the serving
// layer fsyncs the merge's events to the database's store there).
func NewLive(engine *pipeline.Engine, persist func(*knowledge.Set) error) *Live {
	l := &Live{persist: persist, exec: sqlexec.New(engine.Database())}
	l.engine.Store(engine)
	return l
}

// Engine returns the engine being served (it changes after merges).
func (l *Live) Engine() *pipeline.Engine { return l.engine.Load() }

// merge applies a pending change to a full clone (content, history and
// checkpoints) of the served set, after a checkpoint so the change can be
// reverted from the knowledge library, and serves the engine rebuilt over
// it once persist has accepted the set. The served set is never written, so
// in-flight generations keep their engine and knowledge snapshot.
func (l *Live) merge(p *PendingChange, approver string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	served := l.Engine()
	merged := served.KnowledgeSet().CloneFull()
	merged.Checkpoint("before-" + p.FeedbackID)
	for _, e := range p.Edits {
		if err := merged.Apply(e, approver, p.FeedbackID); err != nil {
			return fmt.Errorf("merging %s: %w", e.Describe(), err)
		}
	}
	next := served.WithKnowledge(merged)
	if l.persist != nil {
		if err := l.persist(merged); err != nil {
			return fmt.Errorf("merge %s: %w", p.FeedbackID, err)
		}
	}
	l.engine.Store(next)
	return nil
}

// Solver is the feedback-solver workflow of §4.2.1 for one database: it
// opens feedback sessions, regression-tests submitted edits and merges them
// on approval. It is a view on the database's Live owner, which serves the
// engine; a Solver keeps only its own sessions and pending queue, so any
// number of solvers on one database see and build on each other's merges.
//
// Concurrency contract: Solver methods are safe for concurrent use (the
// serving daemon drives many SME sessions against one solver). Session
// values are NOT synchronized — each feedback session is single-user by
// design.
type Solver struct {
	live        *Live
	recommender *Recommender
	golden      []*task.Case

	mu sync.Mutex
	// pending holds submitted changes awaiting human approval.
	pending []*PendingChange
	nextFB  int
}

// NewSolver builds a solver on a database's live engine owner. The golden
// cases are the regression suite replayed before merges.
func NewSolver(live *Live, recommender *Recommender, golden []*task.Case) *Solver {
	return &Solver{live: live, recommender: recommender, golden: golden}
}

// Engine returns the engine being served (it changes after merges, through
// this solver or any other on the database).
func (s *Solver) Engine() *pipeline.Engine { return s.live.Engine() }

// Pending lists changes that passed regression and await approval.
func (s *Solver) Pending() []*PendingChange {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*PendingChange(nil), s.pending...)
}

// Withdraw drops a pending change without merging it — its session was
// abandoned. A change that is not pending is ignored.
func (s *Solver) Withdraw(p *PendingChange) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = slices.DeleteFunc(s.pending, func(q *PendingChange) bool { return q == p })
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
	// pending is the session's latest passing submission; a new one
	// replaces it in the solver's pending queue.
	pending *PendingChange
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
// approval and the session's earlier pending change, if any, is withdrawn —
// a session has at most one change awaiting approval. The golden-suite
// replay checks ctx between cases and aborts mid-generation once ctx is
// done, returning an error matching generr.ErrCanceled.
func (sess *Session) SubmitContext(ctx context.Context) (*SubmitResult, error) {
	if len(sess.Staged) == 0 {
		return nil, fmt.Errorf("nothing staged to submit")
	}
	res, err := sess.solver.submitEdits(ctx, sess.FeedbackID, "sme", sess.Staged)
	if err == nil && res.Pending != nil {
		sess.solver.Withdraw(sess.pending)
		sess.pending = res.Pending
	}
	return res, err
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
			gold, err := s.live.exec.Query(c.GoldSQL)
			if err != nil {
				return nil, fmt.Errorf("golden case %s: gold SQL failed: %w", c.ID, err)
			}
			golds[i] = gold
		}
		pred, err := s.live.exec.Query(rec.FinalSQL)
		if err != nil {
			out[c.ID] = false
			continue
		}
		out[c.ID] = eval.ResultsEqual(golds[i], pred)
	}
	return out, nil
}

// Approve merges a pending change into the next generation of the served
// knowledge set (see Live.merge): it applies to the engine being served at
// the time of the call, which may be newer than the one the regression
// gate replayed. A failed merge leaves the change pending.
func (s *Solver) Approve(p *PendingChange, approver string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	found := slices.Index(s.pending, p)
	if found < 0 {
		return fmt.Errorf("change %s is not pending", p.FeedbackID)
	}
	if err := s.live.merge(p, approver); err != nil {
		return err
	}
	s.pending = slices.Delete(s.pending, found, found+1)
	return nil
}
