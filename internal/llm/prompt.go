package llm

import (
	"encoding/json"
	"fmt"
	"strings"
)

// RenderPrompt produces the generation prompt in the structure of the
// paper's Fig. 2: retrieved knowledge (schema, instructions, decomposed
// examples), the reformulated question, and the CoT plan serialized as a
// JSON object with (description, pseudo-SQL) pairs.
func RenderPrompt(ctx *Context, plan *Plan) string {
	var sb strings.Builder
	sb.WriteString("### Task\n")
	sb.WriteString("Translate the question into a single SQL query for the ")
	sb.WriteString(ctx.DB)
	sb.WriteString(" database. Follow the plan step by step; each step may include\n")
	sb.WriteString("pseudo-SQL marked with leading and trailing dots indicating it is part of a larger query.\n\n")

	if ctx.SchemaDDL != "" {
		sb.WriteString("### Schema\n")
		sb.WriteString(ctx.SchemaDDL)
		sb.WriteString("\n")
	}
	if ctx.Evidence != "" {
		sb.WriteString("### Evidence\n")
		sb.WriteString(ctx.Evidence)
		sb.WriteString("\n\n")
	}
	if len(ctx.Instructions) > 0 {
		sb.WriteString("### Instructions\n")
		for i, ins := range ctx.Instructions {
			fmt.Fprintf(&sb, "%d. %s", i+1, ins.Text)
			if ins.SQLHint != "" {
				fmt.Fprintf(&sb, " (expected SQL: %s)", ins.SQLHint)
			}
			sb.WriteString("\n")
		}
		sb.WriteString("\n")
	}
	if len(ctx.Examples) > 0 {
		sb.WriteString("### Examples\n")
		for i, ex := range ctx.Examples {
			if ex.FullSQL != "" {
				fmt.Fprintf(&sb, "%d. %s\n   SQL: %s\n", i+1, ex.NL, ex.FullSQL)
				continue
			}
			fmt.Fprintf(&sb, "%d. %s\n   %s\n", i+1, ex.NL, ex.Pseudo)
		}
		sb.WriteString("\n")
	}
	if len(ctx.Directives) > 0 {
		sb.WriteString("### Retrieval directives\n")
		for _, d := range ctx.Directives {
			sb.WriteString("- " + d + "\n")
		}
		sb.WriteString("\n")
	}

	sb.WriteString("### Question\n")
	sb.WriteString(ctx.Question)
	sb.WriteString("\n\n")

	if plan != nil && len(plan.Steps) > 0 {
		sb.WriteString("### Plan\n")
		sb.WriteString(RenderPlanJSON(plan))
		sb.WriteString("\n")
	}

	if ctx.PriorSQL != "" {
		sb.WriteString("\n### Previous attempt\n")
		sb.WriteString(ctx.PriorSQL)
		sb.WriteString("\n### Error\n")
		sb.WriteString(ctx.PriorError)
		sb.WriteString("\nRegenerate the query fixing the error.\n")
	}
	return sb.String()
}

// planStepJSON is the serialized plan step form: the paper represents the
// plan as a JSON object with an ordered list of (description, pseudo-SQL)
// pairs.
type planStepJSON struct {
	Step        int    `json:"step"`
	Description string `json:"description"`
	PseudoSQL   string `json:"pseudo_sql,omitempty"`
}

type planJSON struct {
	Steps []planStepJSON `json:"steps"`
}

// RenderPlanJSON serializes the plan as indented JSON for the prompt.
func RenderPlanJSON(plan *Plan) string {
	pj := planJSON{}
	for i, s := range plan.Steps {
		pj.Steps = append(pj.Steps, planStepJSON{
			Step:        i + 1,
			Description: s.Description,
			PseudoSQL:   s.Pseudo,
		})
	}
	data, err := json.MarshalIndent(pj, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(data)
}
