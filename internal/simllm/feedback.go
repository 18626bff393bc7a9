package simllm

import (
	"fmt"
	"strings"

	"genedit/internal/embed"
	"genedit/internal/llm"
)

// GenerateTargets implements feedback operator 1: determine which retrieved
// items the user feedback is about, with a brief explanation. Feedback that
// names a term with no defining instruction yields a "new" target.
func (m *Model) GenerateTargets(req *llm.FeedbackRequest) ([]llm.FeedbackTarget, error) {
	var targets []llm.FeedbackTarget
	fbTokens := embed.Tokenize(req.UserFeedback)
	fbSet := make(map[string]bool, len(fbTokens))
	for _, t := range fbTokens {
		fbSet[t] = true
	}

	// The feedback is embedded once; the item texts are knowledge-set texts,
	// so they come from the process-wide memo.
	fbVec := embed.Embed(req.UserFeedback)

	// Instructions whose terms or text the feedback mentions.
	for _, ins := range req.Instructions {
		reason := ""
		for _, term := range ins.Terms {
			if fbSet[strings.ToLower(term)] {
				reason = fmt.Sprintf("the feedback mentions %s, which this instruction defines", term)
				break
			}
		}
		if reason == "" && fbVec.Cosine(embed.Memo(ins.Text)) > 0.30 {
			reason = "the feedback overlaps this instruction's guidance"
		}
		if reason != "" {
			targets = append(targets, llm.FeedbackTarget{Kind: "instruction", ID: ins.ID, Why: reason})
		}
	}

	// Examples whose description or SQL the feedback overlaps.
	for _, ex := range req.Examples {
		if fbVec.Cosine(embed.Memo(ex.NL+" "+ex.SQL)) > 0.30 {
			targets = append(targets, llm.FeedbackTarget{
				Kind: "example", ID: ex.ID,
				Why: "the feedback concerns the behaviour this example teaches",
			})
		}
	}

	// Terms the feedback uses that nothing in context covers become "new"
	// targets, driving insert edits.
	covered := func(term string) bool {
		for _, ins := range req.Instructions {
			for _, t := range ins.Terms {
				if strings.EqualFold(t, term) {
					return true
				}
			}
		}
		return false
	}
	for _, tok := range fbTokens {
		if len(tok) < 3 || !looksLikeTerm(tok, req.UserFeedback) || covered(tok) {
			continue
		}
		targets = append(targets, llm.FeedbackTarget{
			Kind: "new", ID: strings.ToUpper(tok),
			Why: fmt.Sprintf("the feedback introduces %q, which the knowledge set does not cover", strings.ToUpper(tok)),
		})
	}
	if len(targets) == 0 {
		targets = append(targets, llm.FeedbackTarget{
			Kind: "new", ID: "",
			Why: "the feedback describes behaviour no current knowledge item covers",
		})
	}
	return targets, nil
}

// looksLikeTerm reports whether the token appears in the original feedback
// text as an all-caps word — the acronym convention domain terms follow
// (QoQFP is matched case-insensitively by the caller's tokenization, so the
// original text is checked for the distinctive capitalized spelling).
func looksLikeTerm(token, original string) bool {
	if len(token) < 3 {
		return false
	}
	for _, word := range strings.FieldsFunc(original, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9')
	}) {
		if !strings.EqualFold(word, token) {
			continue
		}
		// Count upper-case letters: acronyms like QoQFP or RPV have ≥ 2.
		uppers := 0
		for _, r := range word {
			if r >= 'A' && r <= 'Z' {
				uppers++
			}
		}
		if uppers >= 2 {
			return true
		}
	}
	return false
}

// ExpandFeedback implements feedback operator 2: elaborate why the feedback
// applies to the chosen targets.
func (m *Model) ExpandFeedback(req *llm.FeedbackRequest, targets []llm.FeedbackTarget) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "The user reported: %q. ", req.UserFeedback)
	fmt.Fprintf(&sb, "The generated query was:\n%s\n", req.GeneratedSQL)
	if req.ExecFeedback != "" {
		fmt.Fprintf(&sb, "Execution feedback: %s. ", req.ExecFeedback)
	}
	for _, t := range targets {
		switch t.Kind {
		case "instruction":
			fmt.Fprintf(&sb, "Instruction %s is implicated because %s. ", t.ID, t.Why)
		case "example":
			fmt.Fprintf(&sb, "Example %s is implicated because %s. ", t.ID, t.Why)
		case "new":
			fmt.Fprintf(&sb, "New knowledge is needed: %s. ", t.Why)
		}
	}
	return sb.String(), nil
}

// PlanEdits implements feedback operator 3: a step-by-step CoT plan of the
// required changes.
func (m *Model) PlanEdits(req *llm.FeedbackRequest, expanded string, targets []llm.FeedbackTarget) ([]string, error) {
	var steps []string
	for _, t := range targets {
		switch t.Kind {
		case "instruction":
			steps = append(steps, fmt.Sprintf("Revise instruction %s so that it reflects the feedback.", t.ID))
		case "example":
			steps = append(steps, fmt.Sprintf("Revise example %s so its sub-statement matches the intended behaviour.", t.ID))
		case "new":
			name := t.ID
			if name == "" {
				name = "the described behaviour"
			}
			steps = append(steps, fmt.Sprintf("Insert a new instruction covering %s.", name))
			steps = append(steps, fmt.Sprintf("Insert a decomposed example demonstrating %s in SQL.", name))
		}
	}
	steps = append(steps, "Stage the edits, regenerate the query, and verify against the user feedback.")
	return steps, nil
}

// GenerateEdits implements feedback operator 4: full revised content for
// each planned change. The drafts use the knowledge-set representations.
func (m *Model) GenerateEdits(req *llm.FeedbackRequest, plan []string, targets []llm.FeedbackTarget) ([]llm.EditDraft, error) {
	c := m.lookup(req.Reformulated)
	if c == nil {
		c = m.lookup(req.Question)
	}
	var drafts []llm.EditDraft
	for _, t := range targets {
		switch t.Kind {
		case "instruction":
			drafts = append(drafts, llm.EditDraft{
				Op: "update", Kind: "instruction", ID: t.ID,
				Text:      refineGuidance(findInstructionText(req, t.ID), req.UserFeedback),
				Rationale: t.Why,
			})
		case "example":
			drafts = append(drafts, llm.EditDraft{
				Op: "update", Kind: "example", ID: t.ID,
				NL:        "Corrected per feedback: " + req.UserFeedback,
				SQL:       findExampleSQL(req, t.ID),
				Rationale: t.Why,
			})
		case "new":
			term := t.ID
			text := req.UserFeedback
			sqlHint := ""
			terms := []string{}
			if term != "" {
				terms = append(terms, term)
				text = fmt.Sprintf("%s: %s", term, req.UserFeedback)
			}
			// The model grounds the new knowledge in the case's latent
			// structure when it recognizes the question: the inserted
			// instruction genuinely unlocks future correct generations.
			if c != nil {
				for _, tr := range c.Terms {
					if term == "" || strings.EqualFold(tr.Term, term) {
						if term == "" {
							terms = append(terms, tr.Term)
							text = fmt.Sprintf("%s: %s", tr.Term, req.UserFeedback)
						}
						if c.Evidence != "" {
							text += " (" + c.Evidence + ")"
						}
						break
					}
				}
			}
			// Feedback-derived knowledge records the question it came from,
			// both for provenance and so future retrieval treats it as a
			// clarification of that question.
			text += " [from feedback on: " + req.Question + "]"
			drafts = append(drafts, llm.EditDraft{
				Op: "insert", Kind: "instruction",
				Text: text, SQLHint: sqlHint, Terms: terms,
				Rationale: t.Why,
			})
		}
	}
	// Retrieval-accuracy feedback becomes a directive (§1: edits "can
	// alternatively add instructions to the retrieval and reranking
	// operations").
	lower := strings.ToLower(req.UserFeedback)
	if strings.Contains(lower, "retriev") || strings.Contains(lower, "missing example") || strings.Contains(lower, "wrong example") {
		drafts = append(drafts, llm.EditDraft{
			Op: "directive", Kind: "retrieval_directive",
			Directive: "When ranking knowledge for questions like " + shorten(req.Question, 60) +
				", prefer items matching: " + shorten(req.UserFeedback, 80),
			Rationale: "the feedback concerns retrieval accuracy",
		})
	}
	return drafts, nil
}

func findInstructionText(req *llm.FeedbackRequest, id string) string {
	for _, ins := range req.Instructions {
		if ins.ID == id {
			return ins.Text
		}
	}
	return ""
}

func findExampleSQL(req *llm.FeedbackRequest, id string) string {
	for _, ex := range req.Examples {
		if ex.ID == id {
			return ex.SQL
		}
	}
	return ""
}

func refineGuidance(existing, feedback string) string {
	if existing == "" {
		return feedback
	}
	return existing + " Additionally: " + feedback
}

func shorten(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
