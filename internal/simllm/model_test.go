package simllm

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"genedit/internal/decompose"
	"genedit/internal/llm"
	"genedit/internal/task"
	"genedit/internal/workload"
)

func testModelAndSuite(t *testing.T) (*Model, *workload.Suite) {
	t.Helper()
	suite := workload.NewSuite(1)
	return New(GenEditProfile(), suite.Registry, 42), suite
}

func sportsCase(t *testing.T, suite *workload.Suite, id string) *task.Case {
	t.Helper()
	for _, c := range suite.Cases {
		if c.ID == id {
			return c
		}
	}
	t.Fatalf("case %s missing", id)
	return nil
}

func TestReformulateCanonicalForm(t *testing.T) {
	m, _ := testModelAndSuite(t)
	tests := []struct{ in, want string }{
		{"identify our 5 best teams", "Show me our 5 best teams"},
		{"show me revenue", "Show me revenue"},
		{"Show me revenue", "Show me revenue"},
		{"total revenue per org", "Show me total revenue per org"},
		{"list the stores", "Show me the stores"},
	}
	for _, tt := range tests {
		got, err := m.Reformulate(tt.in)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("Reformulate(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestReformulationPreservesRegistryLookup(t *testing.T) {
	m, suite := testModelAndSuite(t)
	for _, c := range suite.Cases {
		r, err := m.Reformulate(c.Question)
		if err != nil {
			t.Fatal(err)
		}
		if suite.Registry.Lookup(r) != c {
			t.Errorf("case %s unresolvable after reformulation: %q", c.ID, r)
		}
	}
}

func TestClassifyIntentsReturnsTrueIntent(t *testing.T) {
	m, suite := testModelAndSuite(t)
	options := []llm.IntentOption{
		{ID: "i1", Name: "financial performance", Description: "Queries about financial performance."},
		{ID: "i2", Name: "viewership analytics", Description: "Queries about viewership analytics."},
	}
	c := sportsCase(t, suite, "sports_holdings-s-top-1")
	got, err := m.ClassifyIntents(c.Question, options)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range got {
		if id == "i1" {
			found = true
		}
	}
	if !found {
		t.Errorf("ClassifyIntents = %v, want the true intent i1", got)
	}
}

func TestLinkSchemaReturnsNeededColumns(t *testing.T) {
	m, suite := testModelAndSuite(t)
	c := sportsCase(t, suite, "sports_holdings-s-top-1")
	sch := suite.Schemas[c.DB]
	els, err := m.LinkSchema(c.Question, sch, &llm.Context{Question: c.Question})
	if err != nil {
		t.Fatal(err)
	}
	// Most needed columns should be linked (misses are rare).
	linked := make(map[string]bool)
	for _, el := range els {
		linked[strings.ToUpper(el.String())] = true
	}
	hits := 0
	for _, el := range c.Needed {
		if linked[strings.ToUpper(el.String())] {
			hits++
		}
	}
	if hits < len(c.Needed)-1 {
		t.Errorf("linked %d of %d needed columns", hits, len(c.Needed))
	}
}

func TestLinkSchemaFallbackForUnknownQuestion(t *testing.T) {
	m, suite := testModelAndSuite(t)
	sch := suite.Schemas["sports_holdings"]
	els, err := m.LinkSchema("revenue of organisations", sch, &llm.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if len(els) == 0 {
		t.Error("embedding fallback returned no columns")
	}
	for _, el := range els {
		if !sch.HasElement(el) {
			t.Errorf("fallback linked a non-existent column %v", el)
		}
	}
}

func TestPlanAnchorsFromExamples(t *testing.T) {
	m, suite := testModelAndSuite(t)
	c := sportsCase(t, suite, "sports_holdings-s-top-1")
	ctx := &llm.Context{Question: c.Question}

	// Without examples: no anchors.
	plan, err := m.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Steps {
		if s.Pseudo != "" {
			t.Fatalf("step %q anchored without any examples", s.Description)
		}
	}

	// With a matching fragment example: its clause anchors.
	ctx.Examples = []llm.RetrievedExample{{
		ID: "e", Clause: "from", SQL: "SPORTS_FINANCIALS", NL: "read financials",
	}}
	plan, err = m.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	anchored := 0
	for _, s := range plan.Steps {
		if s.SQL != "" {
			anchored++
			if s.Clause != "from" {
				t.Errorf("unexpected anchored clause %s", s.Clause)
			}
		}
	}
	if anchored == 0 {
		t.Error("matching example did not anchor the FROM step")
	}
}

func TestGenerateSQLComposesGoldWhenFullyAnchored(t *testing.T) {
	m, suite := testModelAndSuite(t)
	// Pick a case with no terms/decoys and force full anchoring via a
	// clarification-like context: simplest is to feed the plan produced
	// from the gold fragments themselves.
	c := sportsCase(t, suite, "sports_holdings-s-count")
	ctx := &llm.Context{Question: c.Question, Instructions: []llm.RetrievedInstruction{{
		Text: "Clarification: " + c.Question + " means exactly that.",
	}}}
	plan, err := m.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sql, err := m.GenerateSQL(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if sql == "" {
		t.Fatal("no SQL generated")
	}
	// With the clarification suppressing misunderstandings, the output
	// executes and matches gold on the case's database.
	exec, err := suite.Executor(c.DB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Query(sql); err != nil {
		// A syntax slip is still possible; repair must fix it.
		repaired, rerr := m.RepairSQL(&llm.Context{Question: c.Question, Attempt: 1}, plan, sql, err.Error())
		if rerr != nil {
			t.Fatal(rerr)
		}
		if _, err2 := exec.Query(repaired); err2 != nil {
			t.Fatalf("repair failed twice: %v", err2)
		}
	}
}

func TestGenerateSQLTermGate(t *testing.T) {
	m, suite := testModelAndSuite(t)
	c := sportsCase(t, suite, "sports_holdings-s-our")

	// Without the defining instruction or evidence: the naive (wrong) SQL.
	sql, err := m.GenerateSQL(&llm.Context{Question: c.Question}, llm.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sql, "OWNERSHIP_FLAG_COLUMN") {
		t.Errorf("term gate failed: flag filter appeared without a definition\n%s", sql)
	}

	// With the defining instruction: the ownership filter appears.
	ctx := &llm.Context{Question: c.Question, Instructions: []llm.RetrievedInstruction{{
		Text: "'our' means OWNERSHIP_FLAG_COLUMN = 'COC'", Terms: []string{"our"},
	}}}
	plan, err := m.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sql, err = m.GenerateSQL(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "OWNERSHIP_FLAG_COLUMN") {
		t.Errorf("defining instruction did not unlock the term\n%s", sql)
	}
}

func TestGenerateSQLDeterministic(t *testing.T) {
	m, suite := testModelAndSuite(t)
	c := sportsCase(t, suite, "sports_holdings-m-pivot")
	ctx := &llm.Context{Question: c.Question}
	plan, _ := m.Plan(ctx)
	a, err := m.GenerateSQL(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.GenerateSQL(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("generation is not deterministic for identical inputs")
	}
}

func TestGenerateSQLUnknownQuestionFallback(t *testing.T) {
	m, _ := testModelAndSuite(t)
	sql, err := m.GenerateSQL(&llm.Context{
		Question:  "completely novel interactive question",
		SchemaDDL: "CREATE TABLE WIDGETS (\n  ID INTEGER\n);\n",
	}, llm.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "WIDGETS") {
		t.Errorf("fallback SQL should target the first schema table, got %s", sql)
	}
}

func TestBreakSyntaxAlwaysBreaks(t *testing.T) {
	samples := []string{
		"SELECT A FROM T WHERE (B = 1)",
		"SELECT 1",
		"SELECT SUM(X) FROM T GROUP BY Y",
	}
	for _, sql := range samples {
		broken := breakSyntax(sql)
		if broken == sql {
			t.Errorf("breakSyntax did not change %q", sql)
		}
	}
}

func TestSplitTopLevel(t *testing.T) {
	got := splitTopLevel("A, SUM(CASE WHEN x THEN 1 ELSE 0 END), 'a,b', F(1,2)", ',')
	want := []string{"A", "SUM(CASE WHEN x THEN 1 ELSE 0 END)", "'a,b'", "F(1,2)"}
	if len(got) != len(want) {
		t.Fatalf("splitTopLevel = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("part %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestMutateConditionChangesSemantics(t *testing.T) {
	m, _ := testModelAndSuite(t)
	frag := m.mutateFragment(decompose.Fragment{Clause: decompose.ClauseWhere, SQL: "((A = 1) AND (B = 2))"}, "salt")
	if frag.SQL == "((A = 1) AND (B = 2))" {
		t.Errorf("where mutation was a no-op: %s", frag.SQL)
	}
	grp := m.mutateFragment(decompose.Fragment{Clause: decompose.ClauseGroupBy, SQL: "ENTITY"}, "salt")
	if grp.SQL == "ENTITY" {
		t.Errorf("single-expression group-by mutation was a no-op")
	}
}

func TestDecoyGuarded(t *testing.T) {
	d := task.DecoyRequirement{CorrectColumn: "REVENUE", DecoyColumn: "REVENUE_LEGACY"}
	ctx := &llm.Context{Instructions: []llm.RetrievedInstruction{{
		Text: "use the REVENUE column, not REVENUE_LEGACY",
	}}}
	if !decoyGuarded(ctx, d) {
		t.Error("guard instruction not recognized")
	}
	if decoyGuarded(&llm.Context{}, d) {
		t.Error("empty context should not guard")
	}
}

func TestFeedbackOperatorsEndToEnd(t *testing.T) {
	m, _ := testModelAndSuite(t)
	req := &llm.FeedbackRequest{
		Question:     "total revenue for our sports organisations in 2023",
		Reformulated: "Show me total revenue for our sports organisations in 2023",
		GeneratedSQL: "SELECT SUM(REVENUE) AS TOTAL FROM SPORTS_FINANCIALS WHERE (YEAR(FIN_MONTH) = 2023)",
		UserFeedback: "This response queries all sports organisations but I only care about our organisations.",
	}
	targets, err := m.GenerateTargets(req)
	if err != nil || len(targets) == 0 {
		t.Fatalf("targets = %v, err = %v", targets, err)
	}
	expanded, err := m.ExpandFeedback(req, targets)
	if err != nil || expanded == "" {
		t.Fatalf("expanded = %q, err = %v", expanded, err)
	}
	plan, err := m.PlanEdits(req, expanded, targets)
	if err != nil || len(plan) == 0 {
		t.Fatalf("plan = %v, err = %v", plan, err)
	}
	drafts, err := m.GenerateEdits(req, plan, targets)
	if err != nil || len(drafts) == 0 {
		t.Fatalf("drafts = %v, err = %v", drafts, err)
	}
	// A new-instruction draft must carry the term and reference the question.
	foundTermDraft := false
	for _, d := range drafts {
		if d.Op == "insert" && d.Kind == "instruction" {
			for _, term := range d.Terms {
				if strings.EqualFold(term, "our") {
					foundTermDraft = true
				}
			}
			if !strings.Contains(d.Text, req.Question) {
				t.Errorf("feedback-derived instruction does not reference the question: %q", d.Text)
			}
		}
	}
	if !foundTermDraft {
		t.Error("no instruction draft carries the 'our' term")
	}
}

// TestGoldFragmentsAreNotShared pins the memo's contract: the decomposition
// is computed once, yet no two calls share a slice — GenerateSQL rewrites
// its fragments in place, and must not rewrite the next caller's.
func TestGoldFragmentsAreNotShared(t *testing.T) {
	m, suite := testModelAndSuite(t)
	for _, c := range suite.Cases {
		want, err := decompose.DecomposeSQL(c.GoldSQL)
		if err != nil {
			t.Fatal(err)
		}
		first, err := m.goldFragments(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, want) {
			t.Fatalf("%s: memoised fragments differ from DecomposeSQL", c.ID)
		}
		for i := range first {
			first[i].SQL = "clobbered"
			first[i].Distinct = !first[i].Distinct
		}
		second, err := m.goldFragments(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(second, want) {
			t.Errorf("%s: a caller's edits reached the next caller: %+v", c.ID, second)
		}
	}
}

// TestGoldFragmentsConcurrentFirstUse has many goroutines ask for the same
// cold cases at once (run under -race).
func TestGoldFragmentsConcurrentFirstUse(t *testing.T) {
	m, suite := testModelAndSuite(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range suite.Cases {
				frags, err := m.goldFragments(c)
				if err != nil || len(frags) != c.Steps {
					t.Errorf("%s: %d fragments, %v; want %d", c.ID, len(frags), err, c.Steps)
				}
				frags[0].SQL = "clobbered"
			}
		}()
	}
	wg.Wait()
}
