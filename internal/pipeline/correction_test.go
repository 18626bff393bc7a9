package pipeline

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"genedit/internal/decompose"
	"genedit/internal/llm"
	"genedit/internal/simllm"
	"genedit/internal/task"
	"genedit/internal/workload"
)

func benchEngine(tb testing.TB, clauseEdit bool) (*Engine, *workload.Suite) {
	tb.Helper()
	suite := workload.NewSuite(1)
	kset, err := suite.BuildKnowledge("sports_holdings")
	if err != nil {
		tb.Fatal(err)
	}
	model := simllm.New(simllm.GenEditProfile(), suite.Registry, 42)
	cfg := DefaultConfig()
	cfg.ClauseEditCorrection = clauseEdit
	return New(model, kset, suite.Databases["sports_holdings"], cfg), suite
}

func benchCase(tb testing.TB, suite *workload.Suite, id string) *task.Case {
	tb.Helper()
	for _, c := range suite.Cases {
		if c.ID == id {
			return c
		}
	}
	tb.Fatalf("case %s not found", id)
	return nil
}

func mustDecompose(tb testing.TB, sql string) []decompose.Fragment {
	tb.Helper()
	frags, err := decompose.DecomposeSQL(sql)
	if err != nil {
		tb.Fatal(err)
	}
	return frags
}

func mustCompose(tb testing.TB, frags []decompose.Fragment) string {
	tb.Helper()
	sql, err := decompose.ComposeSQL(frags)
	if err != nil {
		tb.Fatal(err)
	}
	return sql
}

// failingVariant builds an exec-failing but parsable variant of the case's
// gold SQL by renaming one referenced column to a nonexistent one.
func failingVariant(t testing.TB, gold string) string {
	t.Helper()
	for _, col := range []string{"REVENUE", "VIEWS", "ORG_NAME"} {
		if strings.Contains(gold, col) {
			return strings.ReplaceAll(gold, col, col+"_MISSING")
		}
	}
	t.Fatalf("no known column to corrupt in %q", gold)
	return ""
}

// repairContext runs one real generation to obtain the prompt context and
// plan the correction operators receive.
func repairContext(t testing.TB, e *Engine, question, evidence string) (llm.Context, llm.Plan) {
	t.Helper()
	rec, err := e.GenerateContext(context.Background(), question, evidence)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Context, rec.Plan
}

func TestClauseEditRepairFixesExecFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClauseEditCorrection = true
	engine, suite := testEngine(t, cfg)
	c := caseByID(t, suite, "sports_holdings-s-list-1")

	ctx, plan := repairContext(t, engine, c.Question, c.Evidence)
	failing := failingVariant(t, c.GoldSQL)
	if _, err := engine.exec.Query(failing); err == nil {
		t.Fatal("corrupted SQL unexpectedly executes")
	}

	// The per-clause edit draw can miss on any single attempt; the pipeline
	// retries with a new attempt number, so accept a fix on any of them.
	fixed := ""
	for attempt := 1; attempt <= 5; attempt++ {
		ctx.Attempt = attempt
		if out := engine.clauseEditRepair(&ctx, plan, failing, "unknown column"); out != "" {
			fixed = out
			break
		}
	}
	if fixed == "" {
		t.Fatal("clauseEditRepair proposed no repair in 5 attempts")
	}
	if _, err := engine.exec.Query(fixed); err != nil {
		t.Fatalf("repaired SQL still fails: %v\nsql: %s", err, fixed)
	}
}

func TestClauseEditRepairKnowledgeGated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClauseEditCorrection = true
	engine, suite := testEngine(t, cfg)
	// s-our depends on a domain term; without its definition in context the
	// editor must refuse rather than conjure the right filter from thin air.
	c := caseByID(t, suite, "sports_holdings-s-our")

	ctx, plan := repairContext(t, engine, c.Question, "")
	ctx.Instructions = nil
	ctx.Evidence = ""
	failing := failingVariant(t, c.GoldSQL)
	for attempt := 1; attempt <= 5; attempt++ {
		ctx.Attempt = attempt
		if out := engine.clauseEditRepair(&ctx, plan, failing, "unknown column"); out != "" {
			t.Fatalf("edit repair succeeded without the term definition: %s", out)
		}
	}
}

func TestApplyClauseEditsInsertDeleteReplace(t *testing.T) {
	engine, suite := testEngine(t, DefaultConfig())
	_ = engine
	c := caseByID(t, suite, "sports_holdings-s-top-1")
	// Replace the LIMIT, delete ORDER BY, insert HAVING on the final unit.
	frags := mustDecompose(t, c.GoldSQL)
	edited := applyClauseEdits(frags, []llm.ClauseEdit{
		{Unit: "", Clause: "limit", SQL: "7"},
		{Unit: "", Clause: "order_by", Delete: true},
		{Unit: "", Clause: "having", SQL: "COUNT(*) > 1"},
	})
	sql := mustCompose(t, edited)
	if !strings.Contains(sql, "LIMIT 7") || strings.Contains(sql, "ORDER BY") ||
		!strings.Contains(sql, "HAVING COUNT(*) > 1") {
		t.Fatalf("edits not applied: %s", sql)
	}
}

// execFailingEngines builds two engines over the same registry — correction
// by regeneration vs by clause editing — plus a case whose first generation
// attempt exec-fails: a decoy resolving to a nonexistent column. The decoy
// draw is not attempt-salted, so full regeneration deterministically repeats
// the mistake, while the clause editor repairs it against the decomposition.
func execFailingEngines(tb testing.TB) (regen, edit *Engine, c *task.Case) {
	tb.Helper()
	suite := workload.NewSuite(1)
	kset, err := suite.BuildKnowledge("sports_holdings")
	if err != nil {
		tb.Fatal(err)
	}
	model := simllm.New(simllm.GenEditProfile(), suite.Registry, 42)
	cfgOff := DefaultConfig()
	cfgOff.DisableSchemaLinking = true // decoy resolution runs unlinked
	cfgOn := cfgOff
	cfgOn.ClauseEditCorrection = true
	regen = New(model, kset, suite.Databases["sports_holdings"], cfgOff)
	edit = New(model, kset, suite.Databases["sports_holdings"], cfgOn)

	base := benchCase(tb, suite, "sports_holdings-s-top-1")
	// The decoy-resistance draw is keyed on the case ID; probe a few IDs
	// until one resolves to the (nonexistent) decoy column and exec-fails.
	for i := 0; i < 64; i++ {
		cand := &task.Case{
			ID: "bench-decoy-" + strconv.Itoa(i), DB: base.DB,
			Difficulty: base.Difficulty, Intent: base.Intent,
			Question: "benchmark decoy probe " + strconv.Itoa(i) + " top organisations by revenue",
			GoldSQL:  base.GoldSQL,
			Decoys: []task.DecoyRequirement{{
				CorrectColumn: "REVENUE", DecoyColumn: "REVENUE_GHOST",
				Table:    "SPORTS_FINANCIALS",
				WrongSQL: strings.ReplaceAll(base.GoldSQL, "REVENUE", "REVENUE_GHOST"),
			}},
		}
		suite.Registry.Add(cand)
		rec, err := regen.GenerateContext(context.Background(), cand.Question, "")
		if err != nil {
			tb.Fatal(err)
		}
		if !rec.OK {
			return regen, edit, cand
		}
	}
	tb.Fatal("no exec-failing decoy case found in 64 probes")
	return nil, nil, nil
}

func TestClauseEditCorrectionConvergesWhereRegenerationRepeats(t *testing.T) {
	regen, edit, c := execFailingEngines(t)
	rec, err := regen.GenerateContext(context.Background(), c.Question, "")
	if err != nil {
		t.Fatal(err)
	}
	if rec.OK {
		t.Fatal("regeneration unexpectedly fixed the deterministic decoy failure")
	}
	rec, err = edit.GenerateContext(context.Background(), c.Question, "")
	if err != nil {
		t.Fatal(err)
	}
	if !rec.OK {
		t.Fatalf("clause-edit correction did not fix the failure: %+v", rec.Attempts)
	}
	if len(rec.Attempts) < 2 {
		t.Fatalf("expected the first attempt to fail, got %+v", rec.Attempts)
	}
}

// BenchmarkCorrectionLoopClauseEdit vs BenchmarkCorrectionLoopRegenerate
// measure the full generation loop on an exec-failing query under the two
// correction strategies. Beyond ns/op, each reports attempts/op (execution
// round-trips consumed) and repaired/op (whether the loop converged):
// clause editing stops after one targeted repair, where regeneration burns
// the whole attempt budget re-executing the same wrong query and never
// converges — so per successful repair the edit path is strictly cheaper.
func benchmarkCorrectionLoop(b *testing.B, e *Engine, question string) {
	b.Helper()
	attempts, repaired := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := e.GenerateContext(context.Background(), question, "")
		if err != nil {
			b.Fatal(err)
		}
		attempts += len(rec.Attempts)
		if rec.OK {
			repaired++
		}
	}
	b.ReportMetric(float64(attempts)/float64(b.N), "attempts/op")
	b.ReportMetric(float64(repaired)/float64(b.N), "repaired/op")
}

func BenchmarkCorrectionLoopClauseEdit(b *testing.B) {
	_, edit, c := execFailingEngines(b)
	benchmarkCorrectionLoop(b, edit, c.Question)
}

func BenchmarkCorrectionLoopRegenerate(b *testing.B) {
	regen, _, c := execFailingEngines(b)
	benchmarkCorrectionLoop(b, regen, c.Question)
}

// BenchmarkRepairOperatorClauseEdit vs BenchmarkRepairOperatorRegenerate
// measure one correction call in isolation and report out_bytes/op — the
// volume of SQL the model must produce per repair. An edit emits only the
// wrong clauses; regeneration re-emits the entire statement. In a served
// deployment model output is the dominant cost of the correction loop.
func BenchmarkRepairOperatorClauseEdit(b *testing.B) {
	_, edit, c := execFailingEngines(b)
	ctx, plan := repairContext(b, edit, c.Question, "")
	editor := edit.model.(llm.ClauseEditor)
	wrong := c.Decoys[0].WrongSQL
	frags := mustDecompose(b, wrong)
	clauseFrags := make([]llm.ClauseFragment, len(frags))
	for i, f := range frags {
		clauseFrags[i] = llm.ClauseFragment{Unit: f.Unit, Clause: string(f.Clause), SQL: f.SQL, Distinct: f.Distinct}
	}
	ctx.Attempt = 1
	bytes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edits, err := editor.EditClauses(&ctx, plan, clauseFrags, "unknown column")
		if err != nil {
			b.Fatal(err)
		}
		for _, ed := range edits {
			bytes += len(ed.SQL)
		}
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "out_bytes/op")
}

func BenchmarkRepairOperatorRegenerate(b *testing.B) {
	regen, _, c := execFailingEngines(b)
	ctx, plan := repairContext(b, regen, c.Question, "")
	wrong := c.Decoys[0].WrongSQL
	ctx.Attempt = 1
	bytes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := regen.model.RepairSQL(&ctx, plan, wrong, "unknown column")
		if err != nil {
			b.Fatal(err)
		}
		bytes += len(out)
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "out_bytes/op")
}
