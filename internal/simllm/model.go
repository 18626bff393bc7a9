package simllm

import (
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
	"sync"

	"genedit/internal/decompose"
	"genedit/internal/embed"
	"genedit/internal/llm"
	"genedit/internal/schema"
	"genedit/internal/task"
)

// Model is the deterministic simulated language model. It implements
// llm.Model and llm.FeedbackModel.
type Model struct {
	profile Profile
	reg     *task.Registry
	seed    uint64

	// gold holds each registered case's decomposed gold SQL, keyed by
	// *task.Case (values are goldDecomposition). See goldFragments.
	gold sync.Map
}

// goldDecomposition is the outcome of decomposing one case's gold SQL.
type goldDecomposition struct {
	frags []decompose.Fragment
	err   error
}

// New returns a model with the given capability profile, task registry (its
// "latent knowledge" of what questions mean) and seed.
func New(profile Profile, reg *task.Registry, seed uint64) *Model {
	return &Model{profile: profile, reg: reg, seed: seed}
}

// draw produces a deterministic pseudo-uniform value in [0, 1) keyed by the
// model seed, system name and the given aspect parts. The raw FNV-1a sum is
// passed through a splitmix64-style finalizer: FNV's trailing bytes only
// perturb the low bits, and without the avalanche step draws differing only
// in their final salt (attempt numbers, column names) would be correlated.
func (m *Model) draw(parts ...string) float64 {
	h := fnv.New64a()
	var seedBytes [8]byte
	s := m.seed
	for i := 0; i < 8; i++ {
		seedBytes[i] = byte(s >> (8 * i))
	}
	h.Write(seedBytes[:])
	h.Write([]byte(m.profile.Name))
	for _, p := range parts {
		h.Write([]byte{0x1f})
		h.Write([]byte(p))
	}
	sum := h.Sum64()
	sum ^= sum >> 30
	sum *= 0xbf58476d1ce4e5b9
	sum ^= sum >> 27
	sum *= 0x94d049bb133111eb
	sum ^= sum >> 31
	return float64(sum>>11) / float64(uint64(1)<<53)
}

// lookup resolves a question to its registered case, tolerating the
// canonical reformulation prefix.
func (m *Model) lookup(question string) *task.Case {
	if m.reg == nil {
		return nil
	}
	return m.reg.Lookup(question)
}

// goldFragments returns the decomposition of a registered case's gold SQL:
// the model's latent picture of the query, which planning, generation and
// clause editing all start from. It depends on nothing but the case, so it
// is computed once per case for the model's lifetime (the registry bounds
// the entries; concurrent first callers may both decompose, one result is
// kept). Every call returns its own slice, because GenerateSQL rewrites
// fragments in place.
func (m *Model) goldFragments(c *task.Case) ([]decompose.Fragment, error) {
	v, ok := m.gold.Load(c)
	if !ok {
		frags, err := decompose.DecomposeSQL(c.GoldSQL)
		v, _ = m.gold.LoadOrStore(c, goldDecomposition{frags: frags, err: err})
	}
	g := v.(goldDecomposition)
	return slices.Clone(g.frags), g.err
}

// Reformulate implements inference operator 1: rewrite the query into the
// canonical "Show me ..." form of §2.1.
func (m *Model) Reformulate(question string) (string, error) {
	q := strings.TrimSpace(question)
	lower := strings.ToLower(q)
	if strings.HasPrefix(lower, "show me") {
		return "Show me" + q[len("show me"):], nil
	}
	// Strip common imperative lead-ins before prefixing.
	for _, lead := range []string{"identify ", "list ", "find ", "what are ", "what is ", "give me ", "tell me "} {
		if strings.HasPrefix(lower, lead) {
			q = q[len(lead):]
			break
		}
	}
	return "Show me " + q, nil
}

// ClassifyIntents implements inference operator 2. When the case is known,
// the true intent is returned (with a small deterministic misclassification
// rate); otherwise intents are ranked by embedding similarity.
func (m *Model) ClassifyIntents(question string, options []llm.IntentOption) ([]string, error) {
	if len(options) == 0 {
		return nil, nil
	}
	bestByEmbed := ""
	bestScore := -1.0
	// The question is the request's reformulated query, which the pipeline
	// embeds through the same memo right after this call; the option texts
	// are the knowledge set's intents, the same on every request.
	qv := embed.Memo(question)
	for _, opt := range options {
		score := qv.Cosine(embed.Memo(opt.Name + " " + opt.Description))
		if score > bestScore {
			bestScore = score
			bestByEmbed = opt.ID
		}
	}
	c := m.lookup(question)
	if c == nil {
		return []string{bestByEmbed}, nil
	}
	var trueID string
	for _, opt := range options {
		if strings.EqualFold(opt.Name, c.Intent) {
			trueID = opt.ID
			break
		}
	}
	if trueID == "" || m.draw(c.ID, "intent-misclassify") < 0.03 {
		return []string{bestByEmbed}, nil
	}
	if bestByEmbed != trueID {
		return []string{trueID, bestByEmbed}, nil
	}
	return []string{trueID}, nil
}

// LinkSchema implements inference operator 5: identify relevant schema
// elements, with a per-column miss rate modelling the re-ranking filter the
// paper adds to keep the generation context small.
func (m *Model) LinkSchema(question string, full *schema.Schema, ctx *llm.Context) ([]schema.Element, error) {
	c := m.lookup(question)
	if c == nil {
		return m.linkByEmbedding(question, full), nil
	}
	var linked []schema.Element
	for _, el := range c.Needed {
		if m.draw(c.ID, "linkmiss", el.String()) < m.profile.LinkMissRate {
			continue // the re-ranker filtered out a needed column
		}
		linked = append(linked, el)
	}
	// Decoy columns are plausible: the identifier stage often includes them;
	// the correct column's presence is what protects generation.
	for _, d := range c.Decoys {
		el := schema.Element{Table: d.Table, Column: d.DecoyColumn}
		if full.HasElement(el) && m.draw(c.ID, "linkdecoy", el.String()) < 0.5 {
			linked = append(linked, el)
		}
	}
	return linked, nil
}

// linkByEmbedding selects columns whose names overlap the question, the
// fallback used for unregistered (interactive) questions.
func (m *Model) linkByEmbedding(question string, full *schema.Schema) []schema.Element {
	qv := embed.Memo(question)
	type scored struct {
		el    schema.Element
		score float64
	}
	var all []scored
	for _, t := range full.Tables {
		for _, c := range t.Columns {
			text := t.Name + " " + c.Name + " " + c.Description
			all = append(all, scored{
				el:    schema.Element{Table: t.Name, Column: c.Name},
				score: qv.Cosine(embed.Memo(text)),
			})
		}
	}
	var out []schema.Element
	for _, s := range all {
		if s.score > 0.12 {
			out = append(out, s.el)
		}
	}
	if len(out) == 0 && len(all) > 0 {
		best := all[0]
		for _, s := range all[1:] {
			if s.score > best.score {
				best = s
			}
		}
		out = append(out, best.el)
	}
	return out
}

// hasLinkedElement reports whether ctx's linked elements include the column.
func hasLinkedElement(ctx *llm.Context, table, column string) bool {
	for _, el := range ctx.LinkedElements {
		if strings.EqualFold(el.Table, table) && strings.EqualFold(el.Column, column) {
			return true
		}
	}
	return false
}

// clarifiedBy reports whether the context contains a case-specific
// clarification: an instruction whose text restates (most of) the question,
// the kind the feedback solver inserts when an SME explains what they
// actually meant. A clarification suppresses misunderstanding failures for
// that question with high (iteration-dependent) probability — feedback is
// occasionally too vague, and iterating sharpens it.
func (m *Model) clarifiedBy(c *task.Case, ctx *llm.Context) bool {
	qTokens := embed.Tokenize(c.Question)
	if len(qTokens) == 0 {
		return false
	}
	clarifiers := 0
	clarifierBytes := 0
	for _, ins := range ctx.Instructions {
		text := strings.ToLower(ins.Text)
		matched := 0
		for _, t := range qTokens {
			if strings.Contains(text, t) {
				matched++
			}
		}
		if float64(matched) >= 0.8*float64(len(qTokens)) {
			clarifiers++
			clarifierBytes += len(ins.Text)
		}
	}
	if clarifiers == 0 {
		return false
	}
	// Effectiveness re-rolls as iterations sharpen the clarification (each
	// feedback round extends or adds clarifying text).
	return m.draw(c.ID, "clarify", strconv.Itoa(clarifiers), strconv.Itoa(clarifierBytes)) < 0.85
}

// decoyGuarded reports whether an in-context instruction names both the
// correct and the decoy column — the guard a feedback edit like "use
// REVENUE, not REVENUE_LEGACY" provides.
func decoyGuarded(ctx *llm.Context, d task.DecoyRequirement) bool {
	for _, ins := range ctx.Instructions {
		upper := strings.ToUpper(ins.Text + " " + ins.SQLHint)
		if strings.Contains(upper, strings.ToUpper(d.CorrectColumn)) &&
			strings.Contains(upper, strings.ToUpper(d.DecoyColumn)) {
			return true
		}
	}
	return false
}

// termSatisfied reports whether the generation context supplies a usable
// definition of the domain term: a defining instruction in context, or a
// successful read of the raw evidence string.
func (m *Model) termSatisfied(c *task.Case, ctx *llm.Context, term string) bool {
	for _, ins := range ctx.Instructions {
		for _, t := range ins.Terms {
			if strings.EqualFold(t, term) {
				return true
			}
		}
	}
	if ctx.Evidence != "" && strings.Contains(strings.ToUpper(ctx.Evidence), strings.ToUpper(term)) {
		return m.draw(c.ID, "evidence", term) < m.profile.EvidenceUse
	}
	return false
}
