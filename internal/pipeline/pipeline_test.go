package pipeline

import (
	"context"
	"strings"
	"testing"

	"genedit/internal/knowledge"
	"genedit/internal/simllm"
	"genedit/internal/task"
	"genedit/internal/workload"
)

func testEngine(t *testing.T, cfg Config) (*Engine, *workload.Suite) {
	t.Helper()
	suite := workload.NewSuite(1)
	kset, err := suite.BuildKnowledge("sports_holdings")
	if err != nil {
		t.Fatal(err)
	}
	model := simllm.New(simllm.GenEditProfile(), suite.Registry, 42)
	return New(model, kset, suite.Databases["sports_holdings"], cfg), suite
}

func caseByID(t *testing.T, suite *workload.Suite, id string) *task.Case {
	t.Helper()
	for _, c := range suite.Cases {
		if c.ID == id {
			return c
		}
	}
	t.Fatalf("case %s not found", id)
	return nil
}

func TestGenerateFillsRecord(t *testing.T) {
	engine, suite := testEngine(t, DefaultConfig())
	c := caseByID(t, suite, "sports_holdings-s-list-1")
	rec, err := engine.GenerateContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rec.Reformulated, "Show me") {
		t.Errorf("reformulated = %q, want canonical prefix", rec.Reformulated)
	}
	if len(rec.IntentIDs) == 0 || len(rec.IntentNames) == 0 {
		t.Error("no intents classified")
	}
	if len(rec.Context.Examples) == 0 {
		t.Error("no examples selected")
	}
	if len(rec.Context.Instructions) == 0 {
		t.Error("no instructions selected")
	}
	if rec.Context.LinkedElements == nil {
		t.Error("schema linking enabled but no linked elements recorded")
	}
	if len(rec.Plan.Steps) == 0 {
		t.Error("no plan produced")
	}
	if len(rec.Attempts) == 0 || rec.FinalSQL == "" {
		t.Error("no generation attempts recorded")
	}
	prompt := rec.Prompt()
	for _, want := range []string{"### Question", "### Schema"} {
		if !strings.Contains(prompt, want) {
			t.Errorf("prompt missing %s", want)
		}
	}
}

func TestAblationSwitchesShapeContext(t *testing.T) {
	suite := workload.NewSuite(1)
	c := caseByID(t, suite, "sports_holdings-s-top-1")

	cfg := DefaultConfig()
	cfg.DisableInstructions = true
	engine, _ := testEngine(t, cfg)
	rec, err := engine.GenerateContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Context.Instructions) != 0 {
		t.Error("instructions present despite ablation")
	}

	cfg = DefaultConfig()
	cfg.DisableExamples = true
	engine, _ = testEngine(t, cfg)
	rec, err = engine.GenerateContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Context.Examples) != 0 {
		t.Error("examples present in generation context despite ablation")
	}
	// The planner still consumed them: pseudo-SQL can appear.
	cfg = DefaultConfig()
	cfg.DisablePseudoSQL = true
	engine, _ = testEngine(t, cfg)
	rec, err = engine.GenerateContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rec.Plan.Steps {
		if s.Pseudo != "" || s.SQL != "" {
			t.Error("pseudo-SQL present despite ablation")
		}
	}

	cfg = DefaultConfig()
	cfg.DisableSchemaLinking = true
	engine, _ = testEngine(t, cfg)
	rec, err = engine.GenerateContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Context.LinkedElements != nil {
		t.Error("linked elements present despite schema-linking ablation")
	}
	if !strings.Contains(rec.Context.SchemaDDL, "SPORTS_VIEWERSHIP") {
		t.Error("full schema should include every table when linking is off")
	}

	cfg = DefaultConfig()
	cfg.DisablePlanning = true
	engine, _ = testEngine(t, cfg)
	rec, err = engine.GenerateContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Plan.Steps) != 0 {
		t.Error("plan present despite planning ablation")
	}
}

func TestFullSQLExamplesWhenDecompositionAblated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableDecomposition = true
	engine, suite := testEngine(t, cfg)
	c := caseByID(t, suite, "sports_holdings-m-pivot")
	rec, err := engine.GenerateContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Context.Examples) == 0 {
		t.Fatal("no examples selected")
	}
	for _, ex := range rec.Context.Examples {
		if ex.FullSQL == "" {
			t.Errorf("example %s is decomposed despite ablation", ex.ID)
		}
	}
}

func TestSelfCorrectionRetriesOnError(t *testing.T) {
	engine, suite := testEngine(t, DefaultConfig())
	// Scan the sports cases for one whose record shows multiple attempts,
	// proving the loop engages.
	multi := false
	for _, c := range suite.Cases {
		if c.DB != "sports_holdings" {
			continue
		}
		rec, err := engine.GenerateContext(context.Background(), c.Question, c.Evidence)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Attempts) > 1 {
			multi = true
			first := rec.Attempts[0]
			if first.Kind == "ok" {
				t.Errorf("case %s retried after a successful attempt", c.ID)
			}
		}
		if len(rec.Attempts) > DefaultConfig().MaxAttempts+1 {
			t.Errorf("case %s exceeded the attempt budget: %d", c.ID, len(rec.Attempts))
		}
	}
	if !multi {
		t.Error("no case engaged the self-correction loop; slip rate should produce some")
	}
}

func TestGenerationDeterministic(t *testing.T) {
	engine, suite := testEngine(t, DefaultConfig())
	c := caseByID(t, suite, "sports_holdings-c-qoq")
	a, err := engine.GenerateContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.GenerateContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalSQL != b.FinalSQL {
		t.Error("pipeline is not deterministic")
	}
}

func TestWithKnowledgeSwapsRetrieval(t *testing.T) {
	engine, suite := testEngine(t, DefaultConfig())
	c := caseByID(t, suite, "sports_holdings-s-our")

	empty := knowledge.NewSet()
	bare := engine.WithKnowledge(empty)
	rec, err := bare.GenerateContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Context.Examples) != 0 || len(rec.Context.Instructions) != 0 {
		t.Error("empty knowledge set still produced retrieved items")
	}
	// The original engine is untouched.
	rec2, err := engine.GenerateContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Context.Instructions) == 0 {
		t.Error("original engine lost its knowledge set")
	}
}

func TestContextExpansionBoostsCoSelectedInstructions(t *testing.T) {
	// Build a knowledge set where an instruction matches the query weakly
	// but matches a selected example strongly; context expansion should
	// raise its rank.
	suite := workload.NewSuite(1)
	model := simllm.New(simllm.GenEditProfile(), suite.Registry, 42)
	kset := knowledge.NewSet()
	kset.AddIntent(&knowledge.Intent{ID: "i1", Name: "widget analytics"})
	if err := kset.InsertExample(&knowledge.Example{
		ID: "ex-1", IntentIDs: []string{"i1"},
		NL:  "Compute gizmo ratio as alpha divided by beta",
		SQL: "ALPHA / NULLIF(BETA, 0)", Clause: "projection",
	}, "t", ""); err != nil {
		t.Fatal(err)
	}
	// Weakly query-related instruction that shares the example's vocabulary.
	if err := kset.InsertInstruction(&knowledge.Instruction{
		ID: "ins-weak", IntentIDs: []string{"i1"},
		Text: "gizmo ratio uses alpha divided by beta with a NULLIF guard",
	}, "t", ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := kset.InsertInstruction(&knowledge.Instruction{
			IntentIDs: []string{"i1"},
			Text:      "widgets report guidance number " + strings.Repeat("x", i+1),
		}, "t", ""); err != nil {
			t.Fatal(err)
		}
	}

	cfg := DefaultConfig()
	ret := defaultRetrieval
	ret.topInstructions = 3
	engine := newEngine(model, kset, suite.Databases["sports_holdings"], cfg, ret)
	recWith, err := engine.GenerateContext(context.Background(), "widgets gizmo analysis", "")
	if err != nil {
		t.Fatal(err)
	}

	cfg.DisableContextExpansion = true
	engineNo := newEngine(model, kset, suite.Databases["sports_holdings"], cfg, ret)
	recWithout, err := engineNo.GenerateContext(context.Background(), "widgets gizmo analysis", "")
	if err != nil {
		t.Fatal(err)
	}

	rank := func(rec *Record) int {
		for i, ins := range rec.Context.Instructions {
			if ins.ID == "ins-weak" {
				return i
			}
		}
		return len(rec.Context.Instructions)
	}
	if rank(recWith) > rank(recWithout) {
		t.Errorf("context expansion did not improve the co-selected instruction's rank: with=%d without=%d",
			rank(recWith), rank(recWithout))
	}
}

func TestDirectivesAppearInContext(t *testing.T) {
	engine, suite := testEngine(t, DefaultConfig())
	kset := engine.KnowledgeSet().CloneFull()
	kset.AddDirective("prefer quarterly pivot examples", "sme", "fb-1")
	engine2 := engine.WithKnowledge(kset)
	c := caseByID(t, suite, "sports_holdings-m-pivot")
	rec, err := engine2.GenerateContext(context.Background(), c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Context.Directives) != 1 {
		t.Errorf("directives = %v, want the staged directive", rec.Context.Directives)
	}
}
