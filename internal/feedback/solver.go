package feedback

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"genedit/internal/eval"
	"genedit/internal/generr"
	"genedit/internal/knowledge"
	"genedit/internal/pipeline"
	"genedit/internal/sqldb"
	"genedit/internal/task"
)

// Live is the one owner of a database's feedback loop. It serves the
// engine, and every Solver on the database is a view on it, so a merge
// approved through any of them — an SME session, the failure miner, an
// experiment — builds on every merge before it, and the knowledge versions
// form one line. Live also numbers the database's feedback sessions, runs
// its regression gates and holds the state of every change they pass.
// Readers take the engine with one atomic load; a merge holds mu from its
// clone of the served set to the publish of the engine built over it, so no
// two merges branch from one state.
type Live struct {
	engine atomic.Pointer[pipeline.Engine]
	// mu serializes merges and guards the state of every PendingChange on
	// the database.
	mu sync.Mutex
	// persist, when set, makes a merged set durable before it is served;
	// an error aborts the merge with the old engine still served.
	persist func(*knowledge.Set) error
	// runner scores the regression gates' predictions. Merges never change
	// the database, so the gold results it caches serve every later gate.
	runner *eval.Runner
	// lastFB numbers the feedback sessions opened on the database.
	lastFB atomic.Int64
}

// NewLive starts serving engine. persist, when non-nil, runs on every merged
// knowledge set before the engine built over it is served (the serving
// layer fsyncs the merge's events to the database's store there). Session
// numbering resumes after the highest fb-NNN the set's history holds, so a
// set recovered from disk never reuses a merged feedback ID.
func NewLive(engine *pipeline.Engine, persist func(*knowledge.Set) error) *Live {
	db := engine.Database()
	l := &Live{persist: persist, runner: eval.NewRunner(map[string]*sqldb.Database{db.Name: db})}
	l.engine.Store(engine)
	var last int64
	for _, ev := range engine.KnowledgeSet().History() {
		if n, ok := strings.CutPrefix(ev.FeedbackID, "fb-"); ok {
			if n, err := strconv.ParseInt(n, 10, 64); err == nil && n > last {
				last = n
			}
		}
	}
	l.lastFB.Store(last)
	return l
}

// Engine returns the engine being served (it changes after merges).
func (l *Live) Engine() *pipeline.Engine { return l.engine.Load() }

// gate replays the golden suite on base and on candidate; the candidate
// passes when no case regresses from correct to incorrect. Cancellation is
// checked between cases and inside each generation.
func (l *Live) gate(ctx context.Context, golden []*task.Case, base, candidate *pipeline.Engine) (bool, string, error) {
	before, err := l.replay(ctx, golden, base)
	if err != nil {
		return false, "", err
	}
	after, err := l.replay(ctx, golden, candidate)
	if err != nil {
		return false, "", err
	}
	var regressed []string
	improved := 0
	for id, ok := range before {
		if ok && !after[id] {
			regressed = append(regressed, id)
		}
		if !ok && after[id] {
			improved++
		}
	}
	if len(regressed) > 0 {
		return false, fmt.Sprintf("regressions on %d golden case(s): %v", len(regressed), regressed), nil
	}
	return true, fmt.Sprintf("no regressions; %d golden case(s) improved", improved), nil
}

// replay evaluates the golden suite on one engine, returning per-case
// correctness.
func (l *Live) replay(ctx context.Context, golden []*task.Case, engine *pipeline.Engine) (map[string]bool, error) {
	out := make(map[string]bool, len(golden))
	for _, c := range golden {
		if err := generr.FromContext(ctx); err != nil {
			return nil, err
		}
		rec, err := engine.GenerateContext(ctx, c.Question, c.Evidence)
		if err != nil {
			return nil, err
		}
		if out[c.ID], err = l.runner.Evaluate(c, rec.FinalSQL); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// merge applies a pending change to a full clone (content, history and
// checkpoints) of the served set, after a checkpoint so the change can be
// reverted from the knowledge library, and serves the engine rebuilt over
// it once persist has accepted the set. The served set is never written, so
// in-flight generations keep their engine and knowledge snapshot.
//
// An edit that no longer applies to the served set withdraws the change and
// returns an error matching ErrNoLongerApplies. When the served version is
// no longer the one the change's gate replayed, the gate runs again on the
// served engine and the one merge would serve; a regression there withdraws
// the change and returns a *RegressionError.
func (l *Live) merge(p *PendingChange, approver string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p.live != l || p.state != changePending {
		return fmt.Errorf("change %s: %w", p.FeedbackID, ErrNotPending)
	}
	served := l.Engine()
	merged := served.KnowledgeSet().CloneFull()
	merged.Checkpoint("before-" + p.FeedbackID)
	for _, e := range p.Edits {
		if err := merged.Apply(e, approver, p.FeedbackID); err != nil {
			p.state = changeWithdrawn
			return fmt.Errorf("change %s: merging %s: %w: %w", p.FeedbackID, e.Describe(), ErrNoLongerApplies, err)
		}
	}
	next := served.WithKnowledge(merged)
	if v := served.KnowledgeSet().Version(); v != p.GatedVersion {
		// Approve's signature carries no context to pass on.
		passed, detail, err := l.gate(context.TODO(), p.golden, served, next)
		if err != nil {
			return fmt.Errorf("merge %s: %w", p.FeedbackID, err)
		}
		if !passed {
			p.state = changeWithdrawn
			return &RegressionError{FeedbackID: p.FeedbackID, Detail: detail, GatedVersion: p.GatedVersion, ServedVersion: v}
		}
	}
	if l.persist != nil {
		if err := l.persist(merged); err != nil {
			return fmt.Errorf("merge %s: %w", p.FeedbackID, err)
		}
	}
	l.engine.Store(next)
	p.state = changeMerged
	return nil
}

// ErrNotPending reports an approval of a change that is not pending: merged
// already, withdrawn, or never submitted on the database.
var ErrNotPending = errors.New("not pending")

// ErrNoLongerApplies reports an approval of a change whose edits do not
// apply to the served knowledge set — a merge since its gate inserted the
// same entity, or deleted one it updates. The change is withdrawn; its
// session may submit again against the served version.
var ErrNoLongerApplies = errors.New("no longer applies to the served knowledge set")

// RegressionError refuses the merge of a change whose gate replayed an older
// knowledge version than the one served at approval: on the served version
// the change regresses golden cases. The change is withdrawn; its session
// may submit again against the served version.
type RegressionError struct {
	FeedbackID string
	// Detail lists the regressed golden cases.
	Detail string
	// GatedVersion is the version the submit-time gate replayed;
	// ServedVersion the one the approval found served.
	GatedVersion, ServedVersion int
}

func (e *RegressionError) Error() string {
	return fmt.Sprintf("change %s was gated on knowledge version %d; on served version %d: %s",
		e.FeedbackID, e.GatedVersion, e.ServedVersion, e.Detail)
}

// Solver is the feedback-solver workflow of §4.2.1 for one database: it
// opens feedback sessions, regression-tests submitted edits and merges them
// on approval. It is a stateless view on the database's Live owner, which
// serves the engine, numbers the sessions, runs the gates and holds every
// change's state, so any number of solvers on one database see and build on
// each other's merges.
//
// Concurrency contract: Solver methods are safe for concurrent use. Session
// values are NOT synchronized — each feedback session is single-user by
// design.
type Solver struct {
	live        *Live
	recommender *Recommender
	golden      []*task.Case
}

// NewSolver builds a solver on a database's live engine owner. The golden
// cases are the regression suite replayed before merges.
func NewSolver(live *Live, recommender *Recommender, golden []*task.Case) *Solver {
	return &Solver{live: live, recommender: recommender, golden: golden}
}

// GoldenPerDB is the size of a database's regression suite in the feedback
// experiments and on the daemon: its first cases (workload.Suite.Golden),
// mirroring the paper demo's "few selected golden queries".
const GoldenPerDB = 4

// Engine returns the engine being served (it changes after merges, through
// this solver or any other on the database).
func (s *Solver) Engine() *pipeline.Engine { return s.live.Engine() }

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
	// Pending is the session's latest passing submission; it may since
	// have been merged or withdrawn.
	Pending *PendingChange
}

// OpenContext generates the initial SQL for a question and starts a session.
// Its FeedbackID is unique on the database. Cancellation propagates into the
// generation pipeline; a canceled ctx returns an error matching
// generr.ErrCanceled.
func (s *Solver) OpenContext(ctx context.Context, question, evidence string) (*Session, error) {
	rec, err := s.Engine().GenerateContext(ctx, question, evidence)
	if err != nil {
		return nil, err
	}
	return &Session{
		solver:     s,
		FeedbackID: fmt.Sprintf("fb-%03d", s.live.lastFB.Add(1)),
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

// Withdraw drops the session's pending change without merging it — the
// session is abandoned or submitted again — and reports whether a change
// was pending.
func (sess *Session) Withdraw() bool {
	p := sess.Pending
	if p == nil {
		return false
	}
	p.live.mu.Lock()
	defer p.live.mu.Unlock()
	if p.state != changePending {
		return false
	}
	p.state = changeWithdrawn
	return true
}

// changeState is where a PendingChange is in its lifecycle.
type changeState int

const (
	changePending changeState = iota
	changeMerged
	changeWithdrawn
)

// PendingChange is a submitted set of edits that passed regression testing
// and awaits human approval (§4.2.1: "Currently, these staged edits require
// human approval after passing regression testing"). It carries its owner
// and the regression suite that passed it, so any Solver on the database can
// approve it.
type PendingChange struct {
	FeedbackID string
	Edits      []knowledge.Edit
	// GatedVersion is the knowledge version the gate replayed.
	GatedVersion int

	live   *Live
	golden []*task.Case
	// state is guarded by live.mu.
	state changeState
}

// SubmitResult reports the submission outcome.
type SubmitResult struct {
	Passed  bool
	Detail  string
	Pending *PendingChange
}

// SubmitContext closes the session's iteration loop: the staged edits run
// through the regression suite; on pass, the pending change awaits
// approval and the session's earlier pending change, if any, is withdrawn —
// a session has at most one change awaiting approval. The golden-suite
// replay checks ctx between cases and aborts mid-generation once ctx is
// done, returning an error matching generr.ErrCanceled.
func (sess *Session) SubmitContext(ctx context.Context) (*SubmitResult, error) {
	if len(sess.Staged) == 0 {
		return nil, fmt.Errorf("nothing staged to submit")
	}
	res, err := sess.solver.submit(ctx, sess.FeedbackID, "sme", sess.Staged)
	if err == nil && res.Pending != nil {
		sess.Withdraw()
		sess.Pending = res.Pending
	}
	return res, err
}

// SubmitCandidate runs programmatically assembled edits — auto-mined
// candidates from the failure miner — through the same regression gate as
// interactive SME sessions. The editor string tags the staged provenance
// (and, via Approve, the merged events), so the audit trail distinguishes
// mined knowledge from human edits while holding both to the same replay
// bar. On pass the change awaits approval under feedbackID.
func (s *Solver) SubmitCandidate(ctx context.Context, feedbackID, editor string, edits []knowledge.Edit) (*SubmitResult, error) {
	if len(edits) == 0 {
		return nil, fmt.Errorf("no edits to submit")
	}
	return s.submit(ctx, feedbackID, editor, edits)
}

// submit is the shared submission path: gate the served engine plus the
// edits against the served engine, and return a pending change when they
// pass.
func (s *Solver) submit(ctx context.Context, feedbackID, editor string, edits []knowledge.Edit) (*SubmitResult, error) {
	served := s.Engine()
	staged, err := served.KnowledgeSet().Stage(edits, editor, feedbackID)
	if err != nil {
		return nil, err
	}
	passed, detail, err := s.live.gate(ctx, s.golden, served, served.WithKnowledge(staged))
	if err != nil {
		return nil, err
	}
	res := &SubmitResult{Passed: passed, Detail: detail}
	if passed {
		res.Pending = &PendingChange{
			FeedbackID:   feedbackID,
			Edits:        slices.Clone(edits),
			GatedVersion: served.KnowledgeSet().Version(),
			live:         s.live,
			golden:       s.golden,
		}
	}
	return res, nil
}

// Approve merges a pending change into the next generation of the served
// knowledge set (see Live.merge). The served engine may be newer than the
// one the change's gate replayed; the gate then runs again on it, and a
// regression refuses the merge with a *RegressionError and withdraws the
// change, and so does an edit that no longer applies (ErrNoLongerApplies).
// A change that is not pending on this solver's database is refused with
// ErrNotPending. Any other failure — a failed re-gate or persist — leaves
// the change pending.
func (s *Solver) Approve(p *PendingChange, approver string) error {
	return s.live.merge(p, approver)
}
