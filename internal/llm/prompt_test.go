package llm

import (
	"encoding/json"
	"strings"
	"testing"
)

func sampleContext() *Context {
	return &Context{
		Question: "Show me the 5 sports organisations with the best and worst QoQFP in Canada for Q2 2023",
		Original: "the 5 sports organisations with the best and worst QoQFP in Canada for Q2 2023",
		DB:       "sports_holdings",
		Intents:  []string{"financial performance"},
		Examples: []RetrievedExample{
			{ID: "ex-1", NL: "RPV is revenue over views", Pseudo: "... REVENUE / NULLIF(VIEWS, 0) ...", SQL: "REVENUE / NULLIF(VIEWS, 0)", Clause: "projection"},
			{ID: "ex-2", NL: "Historical full query", FullSQL: "SELECT 1"},
		},
		Instructions: []RetrievedInstruction{
			{ID: "ins-1", Text: "Apply a -1 multiplier when calculating the change in performance metrics", SQLHint: "-1 * (a - b)"},
		},
		SchemaDDL:  "CREATE TABLE SPORTS_FINANCIALS (ORG_NAME TEXT);\n",
		Evidence:   "QoQFP is quarter-over-quarter financial performance",
		Directives: []string{"prefer quarterly examples"},
	}
}

func samplePlan() *Plan {
	return &Plan{Steps: []PlanStep{
		{Description: "Begin by looking at the financial data from the SPORTS_FINANCIALS table.",
			Pseudo: "... FROM SPORTS_FINANCIALS ...", Unit: "FIN", Clause: "from", SQL: "SPORTS_FINANCIALS"},
		{Description: "Compute the final answer."},
	}}
}

func TestRenderPromptContainsFig2Sections(t *testing.T) {
	out := RenderPrompt(sampleContext(), samplePlan())
	for _, want := range []string{
		"### Schema", "### Evidence", "### Instructions", "### Examples",
		"### Question", "### Plan", "### Retrieval directives",
		"-1 multiplier", "... FROM SPORTS_FINANCIALS ...",
		"pseudo_sql", "QoQFP",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prompt missing %q", want)
		}
	}
}

func TestRenderPromptFullSQLExamples(t *testing.T) {
	out := RenderPrompt(sampleContext(), nil)
	if !strings.Contains(out, "SQL: SELECT 1") {
		t.Error("full-SQL example not rendered in traditional form")
	}
}

func TestRenderPromptSelfCorrectionSection(t *testing.T) {
	ctx := sampleContext()
	ctx.PriorSQL = "SELECT broken"
	ctx.PriorError = "syntax error at 1:8"
	out := RenderPrompt(ctx, nil)
	if !strings.Contains(out, "### Previous attempt") || !strings.Contains(out, "syntax error at 1:8") {
		t.Error("self-correction context not rendered")
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	plan := samplePlan()
	data := RenderPlanJSON(plan)
	if !strings.Contains(data, `"step": 1`) {
		t.Errorf("plan JSON missing step numbering:\n%s", data)
	}
	var parsed planJSON
	if err := json.Unmarshal([]byte(data), &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Steps) != len(plan.Steps) {
		t.Fatalf("round trip changed step count: %d != %d", len(parsed.Steps), len(plan.Steps))
	}
	for i := range parsed.Steps {
		if parsed.Steps[i].Description != plan.Steps[i].Description {
			t.Errorf("step %d description changed", i)
		}
		if parsed.Steps[i].PseudoSQL != plan.Steps[i].Pseudo {
			t.Errorf("step %d pseudo changed", i)
		}
	}
}

func TestRenderPromptEmptyPlanOmitsSection(t *testing.T) {
	out := RenderPrompt(sampleContext(), &Plan{})
	if strings.Contains(out, "### Plan") {
		t.Error("empty plan should omit the plan section")
	}
}
