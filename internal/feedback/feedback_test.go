package feedback

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"genedit/internal/eval"
	"genedit/internal/knowledge"
	"genedit/internal/pipeline"
	"genedit/internal/simllm"
	"genedit/internal/sqlexec"
	"genedit/internal/task"
	"genedit/internal/workload"
)

// testSolver builds a solver for the sports database with an optionally
// degraded knowledge set.
func testSolver(t *testing.T, degraded bool) (*Solver, *workload.Suite) {
	t.Helper()
	suite := workload.NewSuite(1)
	model := simllm.New(simllm.GenEditProfile(), suite.Registry, 42)
	in := suite.KB["sports_holdings"]
	if degraded {
		in.Docs = nil
	}
	kset, err := knowledge.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	engine := pipeline.New(model, kset, suite.Databases["sports_holdings"], pipeline.DefaultConfig())
	return NewSolver(NewLive(engine, nil), NewRecommender(model), suite.Golden("sports_holdings", GoldenPerDB)), suite
}

// ourCase returns the sports "our organisations" jargon case.
func ourCase(t *testing.T, suite *workload.Suite) *task.Case {
	t.Helper()
	for _, c := range suite.Cases {
		if c.ID == "sports_holdings-s-our" {
			return c
		}
	}
	t.Fatal("sports s-our case missing")
	return nil
}

func TestRecommenderProducesEditsForTermFeedback(t *testing.T) {
	solver, suite := testSolver(t, true) // degraded: no instructions
	c := ourCase(t, suite)
	sess, err := solver.OpenContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Feedback("This response queries all sports organisations but I only care about our organisations.")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Targets) == 0 {
		t.Fatal("no feedback targets")
	}
	if len(rec.Plan) == 0 {
		t.Error("no edit plan steps")
	}
	if rec.Expanded == "" {
		t.Error("no expanded feedback")
	}
	var insertsInstruction bool
	for _, e := range rec.Edits {
		if e.Op == knowledge.EditInsert && e.Kind == knowledge.InstructionEntity {
			insertsInstruction = true
		}
	}
	if !insertsInstruction {
		t.Errorf("term feedback should recommend inserting an instruction; edits: %d", len(rec.Edits))
	}
}

func TestStageRegenerateFixesJargonCase(t *testing.T) {
	solver, suite := testSolver(t, true)
	c := ourCase(t, suite)
	// No evidence: the degraded engine has neither an instruction nor a
	// benchmark hint defining "our", so the term gate must fire.
	sess, err := solver.OpenContext(context.Background(), c.Question, "")
	if err != nil {
		t.Fatal(err)
	}
	// Degraded KB: the initial generation must miss the ownership filter.
	if strings.Contains(sess.Record.FinalSQL, "OWNERSHIP_FLAG_COLUMN") {
		t.Fatalf("degraded engine unexpectedly produced the flag filter: %s", sess.Record.FinalSQL)
	}
	rec, err := sess.Feedback("This response queries all sports organisations but I only care about our organisations.")
	if err != nil {
		t.Fatal(err)
	}
	sess.Stage(rec.Edits...)
	regen, err := sess.RegenerateContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(regen.FinalSQL, "OWNERSHIP_FLAG_COLUMN") {
		t.Errorf("staged edits did not unlock the ownership filter:\n%s", regen.FinalSQL)
	}
	// The live knowledge set must be untouched until approval.
	if solver.Engine().KnowledgeSet().DefinesTerm("our") != nil {
		t.Error("staging leaked into the live knowledge set")
	}
}

func TestSubmitRegressionAndApprove(t *testing.T) {
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
	res, err := sess.SubmitContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("regression gate failed: %s", res.Detail)
	}
	if res.Pending == nil || sess.Pending != res.Pending {
		t.Fatal("a passing submission must leave the session one pending change")
	}
	versionBefore := solver.Engine().KnowledgeSet().Version()
	if res.Pending.GatedVersion != versionBefore {
		t.Errorf("gated version = %d, want the served %d", res.Pending.GatedVersion, versionBefore)
	}
	if err := solver.Approve(res.Pending, "reviewer"); err != nil {
		t.Fatal(err)
	}
	if err := solver.Approve(res.Pending, "reviewer"); !errors.Is(err, ErrNotPending) {
		t.Errorf("second approval = %v, want ErrNotPending: approval must consume the change", err)
	}
	live := solver.Engine().KnowledgeSet()
	if live.Version() <= versionBefore {
		t.Error("merge did not advance the knowledge-set version")
	}
	// Audit trail: a checkpoint precedes the merge, and history records it.
	if len(live.Checkpoints()) == 0 {
		t.Error("approval did not checkpoint the knowledge set")
	}
	found := false
	for _, ev := range live.History() {
		if ev.FeedbackID == sess.FeedbackID {
			found = true
		}
	}
	if !found {
		t.Error("merged edits are not attributed to the feedback session in history")
	}
	// The fix persists in the live engine now.
	after, err := solver.Engine().GenerateContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(after.FinalSQL, "OWNERSHIP_FLAG_COLUMN") {
		t.Error("merged knowledge did not fix the live engine")
	}
}

func TestApproveUnknownChangeFails(t *testing.T) {
	solver, _ := testSolver(t, false)
	err := solver.Approve(&PendingChange{FeedbackID: "fb-x"}, "reviewer")
	if !errors.Is(err, ErrNotPending) {
		t.Errorf("approving a change never submitted = %v, want ErrNotPending", err)
	}
}

func TestSubmitWithoutStagedEditsFails(t *testing.T) {
	solver, suite := testSolver(t, false)
	c := ourCase(t, suite)
	sess, err := solver.OpenContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.SubmitContext(context.Background()); err == nil {
		t.Error("submit with nothing staged should fail")
	}
}

func TestRegressionGateBlocksHarmfulEdit(t *testing.T) {
	solver, suite := testSolver(t, false)
	c := ourCase(t, suite)
	sess, err := solver.OpenContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	// A destructive edit: delete the instruction defining "our", which a
	// golden case depends on.
	def := solver.Engine().KnowledgeSet().DefinesTerm("our")
	if def == nil {
		t.Fatal("full KB should define 'our'")
	}
	sess.Stage(knowledge.Edit{Op: knowledge.EditDelete, Kind: knowledge.InstructionEntity, ID: def.ID})
	res, err := sess.SubmitContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Skip("golden subset does not cover the 'our' case for this seed; gate not exercised")
	}
	if !strings.Contains(res.Detail, "regression") {
		t.Errorf("detail = %q, want regression report", res.Detail)
	}
	if res.Pending != nil || sess.Pending != nil {
		t.Error("failed submission must not leave a pending change")
	}
}

func TestSimulatedSMEFeedbackMentionsTermOrColumn(t *testing.T) {
	suite := workload.NewSuite(1)
	sme := NewSimulatedSME(7)
	for _, c := range suite.Cases {
		rec := &pipeline.Record{Question: c.Question}
		fb := sme.FeedbackFor(c, rec)
		if fb == "" {
			t.Fatalf("no feedback for %s", c.ID)
		}
		if len(c.Terms) > 0 && !strings.Contains(strings.ToLower(fb), strings.ToLower(c.Terms[0].Term)) {
			t.Errorf("%s: feedback %q does not mention term %s", c.ID, fb, c.Terms[0].Term)
		}
		if len(c.Terms) == 0 && len(c.Decoys) > 0 && !strings.Contains(fb, c.Decoys[0].CorrectColumn) {
			t.Errorf("%s: feedback %q does not mention column", c.ID, fb)
		}
	}
}

func TestImprovementExperimentMonotoneOverall(t *testing.T) {
	suite := workload.NewSuite(1)
	res, err := RunImprovementExperiment(suite, 42, 2, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("rounds = %d, want 3", len(res.Rounds))
	}
	first, last := res.Rounds[0].EX, res.Rounds[len(res.Rounds)-1].EX
	if last <= first {
		t.Errorf("improvement loop did not improve: %.2f -> %.2f", first, last)
	}
	if res.Rounds[0].Fixed == 0 {
		t.Error("first round fixed no cases")
	}
	if res.FinalHistoryLen == 0 {
		t.Error("no audit history recorded")
	}
}

func TestAcceptanceExperimentShape(t *testing.T) {
	suite := workload.NewSuite(1)
	stats, err := RunAcceptanceExperiment(suite, 42, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions == 0 {
		t.Fatal("no failed cases -> no sessions; the suite should have failures")
	}
	if stats.AcceptedAsIs+stats.AcceptedAfterIter+stats.Abandoned != stats.Sessions {
		t.Error("session outcomes do not partition the sessions")
	}
	if stats.AcceptedAsIs == 0 {
		t.Error("no edits accepted as-is")
	}
	if stats.MergedChanges == 0 {
		t.Error("no changes merged")
	}
}

// referenceGate is the regression gate as it ran before the owner kept one
// runner: each pass opens its own executor and executes every case's gold
// SQL itself. The production gate must reach the same verdicts and text.
func referenceGate(t *testing.T, s *Solver, edits []knowledge.Edit) (before, after map[string]bool) {
	t.Helper()
	live := s.Engine()
	staged, err := live.KnowledgeSet().Stage(edits, "sme", "fb-ref")
	if err != nil {
		t.Fatal(err)
	}
	pass := func(engine *pipeline.Engine) map[string]bool {
		exec := sqlexec.New(engine.Database())
		out := map[string]bool{}
		for _, c := range s.golden {
			rec, err := engine.GenerateContext(context.Background(), c.Question, c.Evidence)
			if err != nil {
				t.Fatal(err)
			}
			gold, err := exec.Query(c.GoldSQL)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := exec.Query(rec.FinalSQL)
			out[c.ID] = err == nil && eval.ResultsEqual(gold, pred)
		}
		return out
	}
	return pass(live), pass(live.WithKnowledge(staged))
}

// TestRegressionGateExecutesGoldOncePerGate: the owner's runner executes a
// golden case's gold SQL at most once — in the first gate that reaches the
// case — so a later gate whose cases' gold SQL can no longer run still
// scores against the results the first one cached; and verdicts and detail
// text are those of the two-executor gate for a rejected and for a passing
// edit.
func TestRegressionGateExecutesGoldOncePerGate(t *testing.T) {
	solver, suite := testSolver(t, false)
	solver.golden = nil
	for _, c := range suite.Cases {
		if c.DB == "sports_holdings" {
			solver.golden = append(solver.golden, c)
		}
	}

	// A harmful edit: the first instruction whose deletion the reference
	// gate rejects.
	var harmful []knowledge.Edit
	for _, ins := range solver.Engine().KnowledgeSet().Instructions() {
		edit := []knowledge.Edit{{Op: knowledge.EditDelete, Kind: knowledge.InstructionEntity, ID: ins.ID}}
		before, after := referenceGate(t, solver, edit)
		for id, ok := range before {
			if ok && !after[id] {
				harmful = edit
			}
		}
		if harmful != nil {
			break
		}
	}
	if harmful == nil {
		t.Fatal("no instruction's deletion regresses a golden case: the rejection path is not exercised")
	}
	harmless := []knowledge.Edit{{Op: knowledge.EditInsert, Kind: knowledge.InstructionEntity,
		Instruction: &knowledge.Instruction{ID: "ins-gate-test", Text: "Prefer explicit column lists over SELECT *."}}}

	for i, edits := range [][]knowledge.Edit{harmful, harmless} {
		before, after := referenceGate(t, solver, edits)
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
		if i > 0 {
			// Same IDs, unrunnable gold SQL: the gate must not execute it.
			for j, c := range solver.golden {
				broken := *c
				broken.GoldSQL = "SELECT no_such_column FROM no_such_table"
				solver.golden[j] = &broken
			}
		}
		res, err := solver.SubmitCandidate(context.Background(), "fb-gate", "sme", edits)
		if err != nil {
			t.Fatalf("gate %d: %v", i, err)
		}
		if res.Passed != (len(regressed) == 0) {
			t.Errorf("gate %d passed = %v, reference regressions %v", i, res.Passed, regressed)
		}
		// With several regressions the listed order is a map's; the count
		// prefix is still pinned.
		want := fmt.Sprintf("no regressions; %d golden case(s) improved", improved)
		if len(regressed) > 0 {
			want = fmt.Sprintf("regressions on %d golden case(s): ", len(regressed))
			if len(regressed) == 1 {
				want += fmt.Sprint(regressed)
			}
		}
		if !strings.HasPrefix(res.Detail, want) || (len(regressed) <= 1 && res.Detail != want) {
			t.Errorf("gate %d detail = %q, want %q", i, res.Detail, want)
		}
	}
}
