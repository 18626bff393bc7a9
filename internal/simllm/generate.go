package simllm

import (
	"fmt"
	"strconv"
	"strings"

	"genedit/internal/decompose"
	"genedit/internal/embed"
	"genedit/internal/llm"
	"genedit/internal/sqlparse"
	"genedit/internal/task"
)

// Plan implements inference operator 6: a CoT plan whose steps describe the
// decomposed fragments of the output query, each augmented with pseudo-SQL
// when a sufficiently similar retrieved example anchors it (§3.1.2).
func (m *Model) Plan(ctx *llm.Context) (llm.Plan, error) {
	c := m.lookup(ctx.Question)
	if c == nil {
		return m.fallbackPlan(ctx), nil
	}
	frags, err := m.goldFragments(c)
	if err != nil {
		return llm.Plan{}, fmt.Errorf("planning: %w", err)
	}
	wholeAnchor, _ := m.wholeQueryAnchor(ctx, c)
	// exVecs[i] embeds ctx.Examples[i].SQL, filled in by fragmentAnchor the
	// first time a fragment of the example's clause kind asks for it. A
	// pipeline's selection (TopExamples, 12 by default) fits on the stack.
	var exBuf [16]embed.Embedded
	exVecs := exBuf[:]
	if len(ctx.Examples) > len(exBuf) {
		exVecs = make([]embed.Embedded, len(ctx.Examples))
	}
	exVecs = exVecs[:len(ctx.Examples)]
	var plan llm.Plan
	for _, frag := range frags {
		step := llm.PlanStep{
			Description: frag.NL,
			Unit:        frag.Unit,
			Clause:      string(frag.Clause),
			Distinct:    frag.Distinct,
		}
		if anchored, anchorSQL := m.fragmentAnchor(ctx, exVecs, frag); wholeAnchor || anchored {
			step.Pseudo = frag.Pseudo()
			step.SQL = frag.SQL
			if anchorSQL != frag.SQL {
				step.AnchorSQL = anchorSQL
			}
		}
		plan.Steps = append(plan.Steps, step)
	}
	return plan, nil
}

// fragmentAnchor finds the most similar retrieved decomposed example of the
// same clause kind; the step is anchored when similarity clears the
// threshold. The anchoring example's SQL is returned so generation can model
// insufficient adaptation. Example SQL and gold-fragment SQL are knowledge-
// set and registry strings, so their vectors come from the process-wide
// memo — looked up once per plan for each example (exVecs, parallel to
// ctx.Examples) and once for the fragment, not once per pair; the
// similarity stays Cosine(example, fragment), operands in that order.
func (m *Model) fragmentAnchor(ctx *llm.Context, exVecs []embed.Embedded, frag decompose.Fragment) (bool, string) {
	bestSim := 0.0
	bestSQL := ""
	var fragVec embed.Embedded
	for i, ex := range ctx.Examples {
		if ex.FullSQL != "" {
			continue
		}
		if ex.Clause != string(frag.Clause) {
			continue
		}
		if exVecs[i].Len() == 0 {
			exVecs[i] = embed.Memo(ex.SQL)
		}
		if fragVec.Len() == 0 {
			fragVec = embed.Memo(frag.SQL)
		}
		if sim := exVecs[i].Cosine(fragVec); sim > bestSim {
			bestSim = sim
			bestSQL = ex.SQL
		}
	}
	if bestSim >= m.profile.AnchorThreshold {
		return true, bestSQL
	}
	return false, ""
}

// wholeQueryAnchor reports whether a traditional full-query example (used
// when decomposition is ablated) matches the whole gold query closely
// enough to anchor every step, and returns that example's SQL.
func (m *Model) wholeQueryAnchor(ctx *llm.Context, c *task.Case) (bool, string) {
	for _, ex := range ctx.Examples {
		if ex.FullSQL == "" {
			continue
		}
		if embed.Memo(ex.FullSQL).Cosine(embed.Memo(c.GoldSQL)) >= m.profile.WholeQueryAnchorThreshold {
			return true, ex.FullSQL
		}
	}
	return false, ""
}

// fallbackPlan builds a generic plan from retrieved examples for questions
// outside the registry (interactive use).
func (m *Model) fallbackPlan(ctx *llm.Context) llm.Plan {
	var plan llm.Plan
	plan.Steps = append(plan.Steps, llm.PlanStep{
		Description: "Identify the relevant table and columns for: " + ctx.Question,
	})
	for i, ex := range ctx.Examples {
		if i >= 3 {
			break
		}
		plan.Steps = append(plan.Steps, llm.PlanStep{Description: ex.NL, Pseudo: ex.Pseudo})
	}
	plan.Steps = append(plan.Steps, llm.PlanStep{Description: "Assemble the final SELECT statement."})
	return plan
}

// GenerateSQL implements inference operator 7: compose the candidate query
// from the plan, gated by the knowledge actually present in the context.
func (m *Model) GenerateSQL(ctx *llm.Context, plan llm.Plan) (string, error) {
	c := m.lookup(ctx.Question)
	if c == nil {
		return m.fallbackSQL(ctx), nil
	}
	attempt := strconv.Itoa(ctx.Attempt)

	// A case-specific clarification (inserted through the feedback solver)
	// suppresses the misunderstanding failure modes for this question.
	clarified := m.clarifiedBy(c, ctx)

	// Domain terms: without a usable definition the model writes the naive
	// interpretation.
	for _, tr := range c.Terms {
		if !m.termSatisfied(c, ctx, tr.Term) && !clarified && tr.WrongSQL != "" {
			return m.maybeSlip(tr.WrongSQL, c, attempt), nil
		}
	}

	// Schema ambiguity: decoy columns.
	for _, d := range c.Decoys {
		if d.WrongSQL == "" {
			continue
		}
		if clarified || decoyGuarded(ctx, d) {
			continue
		}
		var correct bool
		if ctx.LinkedElements != nil {
			if hasLinkedElement(ctx, d.Table, d.CorrectColumn) {
				correct = m.draw(c.ID, "decoy-linked", d.DecoyColumn) >= m.profile.LinkedDecoySlip
			} else {
				// Linking filtered out the correct column; the decoy wins
				// most of the time.
				correct = m.draw(c.ID, "decoy-missed", d.DecoyColumn) >= m.profile.MissedColumnError
			}
		} else {
			correct = m.draw(c.ID, "decoy-free", d.DecoyColumn) < m.profile.DecoyResistance
		}
		if !correct {
			return m.maybeSlip(d.WrongSQL, c, attempt), nil
		}
	}

	// A whole-query anchor (traditional full-SQL few-shot) can be copied
	// insufficiently adapted: the example's parameters survive into the
	// output.
	wholeAnchored, wholeAnchorSQL := m.wholeQueryAnchor(ctx, c)
	if wholeAnchored && wholeAnchorSQL != c.GoldSQL &&
		m.draw(c.ID, "whole-copyslip") < m.profile.AnchorCopySlip {
		return m.maybeSlip(wholeAnchorSQL, c, attempt), nil
	}

	frags, err := m.goldFragments(c)
	if err != nil {
		return "", fmt.Errorf("generation: %w", err)
	}

	// Count corruption events; each corrupts one fragment deterministically.
	corruptions := 0

	// Column-resolution corruption: schema-linking misses on needed columns,
	// or context overload when the full schema is in the prompt. A whole-
	// query anchor shields both paths — the in-context example spells out
	// every needed column.
	switch {
	case wholeAnchored || clarified:
		// no column-resolution corruption
	case ctx.LinkedElements != nil:
		for _, el := range c.Needed {
			if m.draw(c.ID, "linkmiss", el.String()) >= m.profile.LinkMissRate {
				continue // column was linked
			}
			if m.draw(c.ID, "misscorrupt", el.String()) < m.profile.MissedColumnError {
				corruptions++
			}
		}
	default:
		// Context overload: the full schema is in the prompt; wrong-column
		// slips scale with query length.
		overload := m.profile.OverloadFactor * float64(len(frags))
		if overload > 0.6 {
			overload = 0.6
		}
		if m.draw(c.ID, "overload") < overload {
			corruptions++
		}
	}

	// Step derivation: anchored steps compose exactly; unanchored steps must
	// be re-derived from their descriptions. Success is drawn once per case
	// with a probability that decays in the number of unanchored steps —
	// the reasoning-budget model of §3.1.2 (pseudo-SQL "minimizes the need
	// for LLM reasoning").
	anchored := anchorSet(plan)
	hasPlan := len(plan.Steps) > 0
	slipRate := m.profile.AnchorCopySlip
	if len(ctx.Examples) == 0 {
		// The plan still carries pseudo-SQL, but without in-prompt examples
		// the anchors lose their grounding context and adaptation degrades —
		// catastrophically so for fragile multi-CTE queries.
		boost := m.profile.NoExampleSlipBoost
		if c.Fragile && m.profile.FragileNoExampleSlipBoost > boost {
			boost = m.profile.FragileNoExampleSlipBoost
		}
		if boost > 0 {
			slipRate *= boost
		}
	}
	var unanchoredIdx []int
	for i, frag := range frags {
		if !anchored[frag.Key()] {
			unanchoredIdx = append(unanchoredIdx, i)
			continue
		}
		if clarified {
			continue // the clarification pins this step's parameters
		}
		// Anchored steps whose example differs from the target fragment can
		// be copied insufficiently adapted — the example's parameters (its
		// quarter, region, threshold) leak into the output.
		if a := anchorSQLFor(plan, frag); a != "" &&
			m.draw(c.ID, "copyslip", frag.Key()) < slipRate {
			frags[i].SQL = a
		}
	}
	if len(unanchoredIdx) > 0 && !clarified {
		p := m.deriveProb(len(unanchoredIdx), hasPlan)
		if m.draw(c.ID, "derive") >= p {
			// Derivation failed: corrupt result-affecting unanchored
			// fragments (one, plus one more per five on long queries).
			mutable := mutableFragments(frags, unanchoredIdx)
			if len(mutable) == 0 {
				corruptions++
			} else {
				nMut := 1 + len(unanchoredIdx)/5
				for k := 0; k < nMut && k < len(mutable); k++ {
					pick := int(m.draw(c.ID, "derive-pick", attempt, strconv.Itoa(k)) * float64(len(mutable)))
					if pick >= len(mutable) {
						pick = len(mutable) - 1
					}
					i := mutable[pick]
					frags[i] = m.mutateFragment(frags[i], c.ID+attempt+strconv.Itoa(k))
				}
			}
		}
	}

	// Residual misunderstanding, unless the feedback clarified the intent.
	if !clarified && m.draw(c.ID, "residual") < m.profile.Residual[c.Difficulty] {
		corruptions++
	}

	sql, err := decompose.ComposeSQL(frags)
	if err != nil {
		// Mutations never change fragment keys, so composition failure is a
		// programming error worth surfacing.
		return "", fmt.Errorf("generation: %w", err)
	}
	for i := 0; i < corruptions; i++ {
		sql = m.mutateWhole(sql, c.ID, attempt, i)
	}
	return m.maybeSlip(sql, c, attempt), nil
}

// RepairSQL implements operators 8-9: regenerate using execution feedback.
// Syntax slips are fixed with profile probability; semantic failures re-roll
// the generation draws under the (incremented) attempt number.
func (m *Model) RepairSQL(ctx *llm.Context, plan llm.Plan, priorSQL, execError string) (string, error) {
	c := m.lookup(ctx.Question)
	if c == nil {
		return priorSQL, nil
	}
	if strings.Contains(execError, "syntax error") {
		if m.draw(c.ID, "repair", strconv.Itoa(ctx.Attempt)) >= m.profile.RepairSkill {
			return priorSQL, nil // repair failed; pipeline may retry again
		}
	}
	return m.GenerateSQL(ctx, plan)
}

// EditClauses implements the clause-level correction operator
// (llm.ClauseEditor): diff the failing query's fragments against the latent
// gold structure and propose targeted per-clause repairs. The operator is
// knowledge-gated exactly like generation — a misunderstanding rooted in a
// missing domain-term definition cannot be repaired by staring at the
// execution error, so such cases yield no edits (the pipeline falls back to
// full regeneration, which fails the same way until knowledge lands). Each
// wrong clause is repaired independently with probability EditSkill; the
// draws are keyed per (case, attempt, clause) so retries genuinely re-roll.
func (m *Model) EditClauses(ctx *llm.Context, plan llm.Plan, fragments []llm.ClauseFragment, execError string) ([]llm.ClauseEdit, error) {
	c := m.lookup(ctx.Question)
	if c == nil {
		return nil, nil
	}
	if !m.clarifiedBy(c, ctx) {
		for _, tr := range c.Terms {
			if !m.termSatisfied(c, ctx, tr.Term) {
				return nil, nil
			}
		}
	}
	goldFrags, err := m.goldFragments(c)
	if err != nil {
		return nil, nil
	}
	attempt := strconv.Itoa(ctx.Attempt)
	cur := make(map[string]llm.ClauseFragment, len(fragments))
	for _, f := range fragments {
		cur[f.Unit+"/"+f.Clause] = f
	}
	goldKeys := make(map[string]bool, len(goldFrags))
	var edits []llm.ClauseEdit
	for _, gf := range goldFrags {
		key := gf.Key()
		goldKeys[key] = true
		if cf, ok := cur[key]; ok && cf.SQL == gf.SQL && cf.Distinct == gf.Distinct {
			continue
		}
		if m.draw(c.ID, "clause-edit", attempt, key) >= m.profile.EditSkill {
			continue // this clause's fix missed; a later attempt re-rolls
		}
		edits = append(edits, llm.ClauseEdit{
			Unit: gf.Unit, Clause: string(gf.Clause), SQL: gf.SQL, Distinct: gf.Distinct,
		})
	}
	for _, f := range fragments { // slice order keeps the diff deterministic
		key := f.Unit + "/" + f.Clause
		if goldKeys[key] {
			continue
		}
		if m.draw(c.ID, "clause-edit-del", attempt, key) >= m.profile.EditSkill {
			continue
		}
		edits = append(edits, llm.ClauseEdit{Unit: f.Unit, Clause: f.Clause, Delete: true})
	}
	return edits, nil
}

// deriveProb is the whole-query derivation success probability given the
// number of unanchored steps.
func (m *Model) deriveProb(unanchored int, hasPlan bool) float64 {
	over := unanchored - m.profile.FreeSteps
	if over < 0 {
		over = 0
	}
	p := m.profile.DeriveBase - m.profile.DerivePenalty*float64(over)
	if !hasPlan {
		p *= m.profile.NoDescriptionFactor
	}
	if p < 0.25 {
		p = 0.25
	}
	if p > 0.995 {
		p = 0.995
	}
	return p
}

func anchorSet(plan llm.Plan) map[string]bool {
	out := make(map[string]bool, len(plan.Steps))
	for _, s := range plan.Steps {
		if s.SQL != "" {
			out[s.Unit+"/"+s.Clause] = true
		}
	}
	return out
}

// anchorSQLFor returns the differing anchor SQL recorded for a fragment's
// plan step, or "".
func anchorSQLFor(plan llm.Plan, frag decompose.Fragment) string {
	for _, s := range plan.Steps {
		if s.Unit == frag.Unit && s.Clause == string(frag.Clause) {
			return s.AnchorSQL
		}
	}
	return ""
}

// maybeSlip injects a deterministic syntax error at the profile's slip rate.
func (m *Model) maybeSlip(sql string, c *task.Case, attempt string) string {
	if m.draw(c.ID, "slip", attempt) < m.profile.SyntaxSlipRate {
		return breakSyntax(sql)
	}
	return sql
}

// breakSyntax produces a guaranteed-unparsable variant of the SQL.
func breakSyntax(sql string) string {
	if i := strings.LastIndexByte(sql, ')'); i >= 0 {
		return sql[:i] + sql[i+1:]
	}
	return sql + " WHERE"
}

// mutableFragments filters fragment indices to those whose mutation changes
// the result multiset: filters, projections, grouping and limits. Ordering
// fragments only matter under a LIMIT in the same unit (EX comparison is
// order-insensitive, like BIRD's).
func mutableFragments(frags []decompose.Fragment, idx []int) []int {
	limitUnits := make(map[string]bool)
	for _, f := range frags {
		if f.Clause == decompose.ClauseLimit {
			limitUnits[f.Unit] = true
		}
	}
	var out []int
	for _, i := range idx {
		switch frags[i].Clause {
		case decompose.ClauseWhere, decompose.ClauseHaving,
			decompose.ClauseProjection, decompose.ClauseGroupBy,
			decompose.ClauseLimit:
			out = append(out, i)
		case decompose.ClauseOrderBy:
			if limitUnits[frags[i].Unit] {
				out = append(out, i)
			}
		}
	}
	return out
}

// mutateFragment produces a plausible-but-wrong variant of one fragment, the
// failure mode of unanchored derivation.
func (m *Model) mutateFragment(frag decompose.Fragment, salt string) decompose.Fragment {
	pick := int(m.draw("mutate", frag.Key(), salt) * 4)
	switch frag.Clause {
	case decompose.ClauseWhere, decompose.ClauseHaving:
		frag.SQL = mutateCondition(frag.SQL, pick)
	case decompose.ClauseProjection:
		items := splitTopLevel(frag.SQL, ',')
		if len(items) > 1 {
			frag.SQL = strings.Join(items[:len(items)-1], ",")
		} else {
			frag.SQL = mutateCondition(frag.SQL, pick)
		}
	case decompose.ClauseOrderBy:
		// Only reached when the unit has a LIMIT: flipping the direction
		// changes which rows survive.
		if strings.HasSuffix(frag.SQL, " DESC") {
			frag.SQL = strings.TrimSuffix(frag.SQL, " DESC")
		} else {
			frag.SQL += " DESC"
		}
	case decompose.ClauseGroupBy:
		items := splitTopLevel(frag.SQL, ',')
		if len(items) > 1 {
			frag.SQL = strings.Join(items[:len(items)-1], ",")
		} else {
			// Grouping by a constant collapses every row into one group.
			frag.SQL = "1"
		}
	case decompose.ClauseLimit:
		if n, err := strconv.Atoi(strings.TrimSpace(frag.SQL)); err == nil {
			frag.SQL = strconv.Itoa(n + 1 + pick)
		}
	}
	return frag
}

// mutateCondition alters a boolean expression: drop a conjunct, negate a
// comparison, or shift a literal.
func mutateCondition(cond string, pick int) string {
	expr, err := sqlparse.ParseExpr(cond)
	if err != nil {
		return cond
	}
	switch x := expr.(type) {
	case *sqlparse.Binary:
		if x.Op == "AND" && pick%2 == 0 {
			return sqlparse.PrintExpr(x.L) // drop the last conjunct
		}
		if isComparison(x.Op) {
			x.Op = flipComparison(x.Op)
			return sqlparse.PrintExpr(x)
		}
		if x.Op == "AND" || x.Op == "OR" {
			// Mutate the right arm's comparison instead.
			if rb, ok := x.R.(*sqlparse.Binary); ok && isComparison(rb.Op) {
				rb.Op = flipComparison(rb.Op)
				return sqlparse.PrintExpr(x)
			}
			return sqlparse.PrintExpr(x.L)
		}
	}
	return "NOT (" + cond + ")"
}

func isComparison(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func flipComparison(op string) string {
	switch op {
	case "=":
		return "<>"
	case "<>":
		return "="
	case "<":
		return ">="
	case "<=":
		return ">"
	case ">":
		return "<="
	case ">=":
		return "<"
	}
	return op
}

// mutateWhole applies a statement-level mutation guaranteed to change the
// result multiset: inverted filter, truncated projection, shifted limit, or
// (as a last resort) an impossible filter.
func (m *Model) mutateWhole(sql, caseID, attempt string, round int) string {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return sql
	}
	pick := int(m.draw("whole-mutate", caseID, attempt, strconv.Itoa(round)) * 2)
	// Never re-negate an already negated filter: stacked mutations must not
	// cancel back to the original query.
	_, alreadyNegated := stmt.Core.Where.(*sqlparse.Unary)
	canNegate := stmt.Core.Where != nil && !alreadyNegated
	switch {
	case canNegate && pick == 0:
		stmt.Core.Where = &sqlparse.Unary{Op: "NOT", X: stmt.Core.Where}
	case len(stmt.Core.Items) > 1:
		stmt.Core.Items = stmt.Core.Items[:len(stmt.Core.Items)-1]
	case canNegate:
		stmt.Core.Where = &sqlparse.Unary{Op: "NOT", X: stmt.Core.Where}
	case len(stmt.OrderBy) > 0 && stmt.Limit != nil:
		stmt.OrderBy[0].Desc = !stmt.OrderBy[0].Desc
	case stmt.Limit != nil:
		stmt.Limit = &sqlparse.NumberLit{Text: "1"}
	default:
		stmt.Core.Where = &sqlparse.Binary{
			Op: "=",
			L:  &sqlparse.NumberLit{Text: "1"},
			R:  &sqlparse.NumberLit{Text: "0"},
		}
	}
	return sqlparse.Print(stmt)
}

// fallbackSQL answers unregistered questions with a best-effort single-table
// query derived from the schema DDL.
func (m *Model) fallbackSQL(ctx *llm.Context) string {
	table := firstTableInDDL(ctx.SchemaDDL)
	if table == "" {
		return "SELECT 1"
	}
	return "SELECT * FROM " + table + " LIMIT 5"
}

func firstTableInDDL(ddl string) string {
	const marker = "CREATE TABLE "
	i := strings.Index(ddl, marker)
	if i < 0 {
		return ""
	}
	rest := ddl[i+len(marker):]
	if j := strings.IndexAny(rest, " (\n"); j > 0 {
		return rest[:j]
	}
	return ""
}

// splitTopLevel splits s on sep at parenthesis depth zero.
func splitTopLevel(s string, sep byte) []string {
	var parts []string
	depth := 0
	start := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inStr:
			if c == '\'' {
				inStr = false
			}
		case c == '\'':
			inStr = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			parts = append(parts, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	parts = append(parts, strings.TrimSpace(s[start:]))
	return parts
}
