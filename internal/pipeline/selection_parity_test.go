package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"genedit/internal/embed"
	"genedit/internal/knowledge"
	"genedit/internal/llm"
	"genedit/internal/simllm"
	"genedit/internal/workload"
)

// The three selectors used to walk the set once per classified intent, score
// every candidate with two full embed.Cosine calls, build a prompt entry for
// each and stable-sort the lot. Those bodies are kept here as the reference
// the position-addressed selectors must match: same IDs, same order, same
// Score bits. Where the old bodies read a vector the engine had cached, the
// reference embeds the item's text itself (refVec), so it also checks the
// engine's tables against the texts they claim to embed.

var (
	refVecMu sync.Mutex
	refVecs  = map[string]embed.Vector{}
)

// refVec is embed.Text, memoised so the reference stays affordable at 40x
// knowledge.
func refVec(text string) embed.Vector {
	refVecMu.Lock()
	defer refVecMu.Unlock()
	v, ok := refVecs[text]
	if !ok {
		v = embed.Text(text)
		refVecs[text] = v
	}
	return v
}

// referenceDirectiveBoost is the old per-request boost: instructions
// matching a directive's vocabulary get a small ranking boost.
func referenceDirectiveBoost(e *Engine) func(*knowledge.Instruction) float64 {
	directives := e.kset.Directives()
	if len(directives) == 0 {
		return func(*knowledge.Instruction) float64 { return 0 }
	}
	return func(ins *knowledge.Instruction) float64 {
		iv := refVec(ins.Text)
		best := 0.0
		for _, d := range directives {
			if c := embed.Cosine(refVec(d), iv); c > best {
				best = c
			}
		}
		return 0.1 * best
	}
}

func referenceSort[T any](s []T, score func(T) float64, id func(T) string) {
	sort.SliceStable(s, func(i, j int) bool {
		if score(s[i]) != score(s[j]) {
			return score(s[i]) > score(s[j])
		}
		return id(s[i]) < id(s[j])
	})
}

// fullExText is the text a full-query candidate is ranked by: its question,
// or its SQL when the log recorded none.
func fullExText(fe *fullExCand) string {
	if fe.nl != "" {
		return fe.nl
	}
	return fe.sql
}

func referenceSelectExamples(e *Engine, qv embed.Vector, intentIDs []string) []llm.RetrievedExample {
	if e.cfg.DisableDecomposition {
		scored := make([]llm.RetrievedExample, 0, len(e.fullExs))
		for _, fe := range e.fullExs {
			scored = append(scored, llm.RetrievedExample{
				ID:      fe.id,
				NL:      fe.nl,
				FullSQL: fe.sql,
				Score:   embed.Cosine(qv, refVec(fullExText(fe))),
			})
		}
		referenceSort(scored,
			func(x llm.RetrievedExample) float64 { return x.Score },
			func(x llm.RetrievedExample) string { return x.ID })
		if len(scored) > e.cfg.TopExamples {
			scored = scored[:e.cfg.TopExamples]
		}
		return scored
	}
	seen := make(map[string]bool)
	var candidates []*knowledge.Example
	for _, id := range intentIDs {
		for _, ex := range e.kset.ExamplesByIntent(id) {
			if !seen[ex.ID] {
				seen[ex.ID] = true
				candidates = append(candidates, ex)
			}
		}
	}
	for _, hit := range e.exIndex.SearchVector(qv, e.ret.exFanout) {
		if ex := e.kset.Example(hit.ID); ex != nil && !seen[ex.ID] {
			seen[ex.ID] = true
			candidates = append(candidates, ex)
		}
	}
	scored := make([]llm.RetrievedExample, 0, len(candidates))
	for _, ex := range candidates {
		score := embed.Cosine(qv, refVec(ex.Text()))
		if ex.SourceQuestion != "" {
			if s := 0.92 * embed.Cosine(qv, refVec(ex.SourceQuestion)); s > score {
				score = s
			}
		}
		scored = append(scored, llm.RetrievedExample{
			ID: ex.ID, NL: ex.NL, Pseudo: ex.Pseudo, SQL: ex.SQL,
			Clause: ex.Clause, Terms: ex.Terms,
			Score: score,
		})
	}
	referenceSort(scored,
		func(x llm.RetrievedExample) float64 { return x.Score },
		func(x llm.RetrievedExample) string { return x.ID })
	if len(scored) > e.cfg.TopExamples {
		scored = scored[:e.cfg.TopExamples]
	}
	return scored
}

func referenceSelectInstructions(e *Engine, qv embed.Vector, intentIDs []string, examples []llm.RetrievedExample) []llm.RetrievedInstruction {
	seen := make(map[string]bool)
	var candidates []*knowledge.Instruction
	for _, id := range intentIDs {
		for _, ins := range e.kset.InstructionsByIntent(id) {
			if !seen[ins.ID] {
				seen[ins.ID] = true
				candidates = append(candidates, ins)
			}
		}
	}
	for _, hit := range e.insIndex.SearchVector(qv, e.ret.insFanout) {
		if ins := e.kset.Instruction(hit.ID); ins != nil && !seen[ins.ID] {
			seen[ins.ID] = true
			candidates = append(candidates, ins)
		}
	}
	exVecs := make([]embed.Vector, len(examples))
	for i, ex := range examples {
		exVecs[i] = refVec(ex.NL + " " + ex.SQL)
	}
	directiveBoost := referenceDirectiveBoost(e)

	var scored []llm.RetrievedInstruction
	for _, ins := range candidates {
		insVec := refVec(ins.RetrievalText())
		score := embed.Cosine(qv, insVec)
		if !e.cfg.DisableContextExpansion && len(exVecs) > 0 {
			maxEx := 0.0
			for _, ev := range exVecs {
				if c := embed.Cosine(ev, insVec); c > maxEx {
					maxEx = c
				}
			}
			score += e.cfg.ExpansionWeight * maxEx
		}
		score += directiveBoost(ins)
		scored = append(scored, llm.RetrievedInstruction{
			ID: ins.ID, Text: ins.Text, SQLHint: ins.SQLHint, Terms: ins.Terms,
			Score: score,
		})
	}
	referenceSort(scored,
		func(x llm.RetrievedInstruction) float64 { return x.Score },
		func(x llm.RetrievedInstruction) string { return x.ID })
	if len(scored) > e.cfg.TopInstructions {
		scored = scored[:e.cfg.TopInstructions]
	}
	return scored
}

// sameSelection reports the first difference between two selections:
// DeepEqual covers IDs, order, payload and nil-ness; the Score comparison on
// bits rules out a -0/+0 or NaN slipping through ==.
func sameSelection[T any](got, want []T, score func(T) float64) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("got %d entries %+v\nwant %d entries %+v", len(got), got, len(want), want)
	}
	for i := range got {
		if math.Float64bits(score(got[i])) != math.Float64bits(score(want[i])) {
			return fmt.Errorf("entry %d: score bits differ", i)
		}
	}
	return nil
}

// compareSelectors runs one query through the three selectors and their
// references, at the production cut-offs and at cut-offs of 0, 1 and more
// than there are candidates, with and without decomposition. It returns how
// many entries it compared.
func compareSelectors(t *testing.T, base *Engine, label string, qv embed.Vector, intentIDs []string) int {
	t.Helper()
	compared := 0
	for _, cut := range []struct{ examples, instructions int }{
		{base.cfg.TopExamples, base.cfg.TopInstructions},
		{0, 0}, {1, 1}, {1 << 20, 1 << 20},
	} {
		for _, fullQuery := range []bool{false, true} {
			e := *base // engines hold no locks: a shallow copy with its own cfg is safe
			e.cfg.TopExamples = cut.examples
			e.cfg.TopInstructions = cut.instructions
			e.cfg.DisableDecomposition = fullQuery

			examples := e.selectExamples(qv, intentIDs)
			if err := sameSelection(examples, referenceSelectExamples(&e, qv, intentIDs),
				func(x llm.RetrievedExample) float64 { return x.Score }); err != nil {
				t.Fatalf("%s examples (top %d, full-query %v): %v", label, cut.examples, fullQuery, err)
			}
			instructions := e.selectInstructions(qv, intentIDs, examples)
			if err := sameSelection(instructions, referenceSelectInstructions(&e, qv, intentIDs, examples),
				func(x llm.RetrievedInstruction) float64 { return x.Score }); err != nil {
				t.Fatalf("%s instructions (top %d, full-query %v): %v", label, cut.instructions, fullQuery, err)
			}
			compared += len(examples) + len(instructions)
		}
	}
	return compared
}

// selectorQuery is what operators 3-4 receive for one case question.
type selectorQuery struct {
	label     string
	qv        embed.Vector
	intentIDs []string
}

// selectorQueries runs operators 1-2 for every case of one database.
func selectorQueries(tb testing.TB, suite *workload.Suite, model *simllm.Model, e *Engine, db string) []selectorQuery {
	tb.Helper()
	var out []selectorQuery
	for _, c := range suite.Cases {
		if c.DB != db {
			continue
		}
		reformulated, err := model.Reformulate(c.Question)
		if err != nil {
			tb.Fatal(err)
		}
		intentIDs, err := model.ClassifyIntents(reformulated, e.intentOpts)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, selectorQuery{label: c.ID, qv: embed.Text(reformulated), intentIDs: intentIDs})
	}
	return out
}

// suiteEngines builds one default-config engine per database of the suite.
func suiteEngines(tb testing.TB, suite *workload.Suite, model *simllm.Model) map[string]*Engine {
	tb.Helper()
	engines := make(map[string]*Engine)
	for db := range suite.Databases {
		kset, err := suite.BuildKnowledge(db)
		if err != nil {
			tb.Fatal(err)
		}
		engines[db] = New(model, kset, suite.Databases[db], DefaultConfig())
	}
	return engines
}

// TestSelectionMatchesReference runs every case question of the standard
// suite, and of a suite with 40x query-log knowledge (candidate sets in the
// thousands, indexes past the ANN threshold), through the three selectors
// and their references.
func TestSelectionMatchesReference(t *testing.T) {
	suites := map[string]*workload.Suite{
		"standard":      workload.NewSuite(1),
		"knowledge_x40": workload.NewScaledSuite(1, workload.ScaleConfig{DBFactor: 1, KnowledgeFactor: 40}),
	}
	for name, suite := range suites {
		t.Run(name, func(t *testing.T) {
			model := simllm.New(simllm.GenEditProfile(), suite.Registry, 42)
			compared := 0
			for db, base := range suiteEngines(t, suite, model) {
				for _, q := range selectorQueries(t, suite, model, base, db) {
					compared += compareSelectors(t, base, q.label, q.qv, q.intentIDs)
				}
			}
			if compared == 0 {
				t.Fatal("nothing was selected, so nothing was compared")
			}
		})
	}
}

// handBuiltSet covers the table shapes the generated suites do not: an
// example filed under two intents, an intent named twice by one item,
// fragments sharing a source question, an example without one, an example
// whose text embeds to the zero vector, an instruction no intent lists, and
// (optionally) retrieval directives.
func handBuiltSet(t *testing.T, directives ...string) *knowledge.Set {
	t.Helper()
	kset := knowledge.NewSet()
	kset.AddIntent(&knowledge.Intent{ID: "revenue", Name: "revenue analytics"})
	kset.AddIntent(&knowledge.Intent{ID: "audience", Name: "audience analytics"})
	examples := []*knowledge.Example{
		{ID: "ex-both", IntentIDs: []string{"revenue", "audience"},
			NL: "revenue per viewer by organisation", Pseudo: "SUM(REVENUE) / SUM(VIEWERS)",
			SQL: "SUM(REVENUE) / NULLIF(SUM(VIEWERS), 0)", Clause: "projection",
			SourceSQL: "SELECT ORG, SUM(REVENUE) / NULLIF(SUM(VIEWERS), 0) FROM F GROUP BY ORG", SourceQuestion: "What is revenue per viewer for each organisation?"},
		{ID: "ex-twice", IntentIDs: []string{"revenue", "revenue"},
			NL: "group by organisation", Pseudo: "GROUP BY ORG", SQL: "ORG", Clause: "group_by",
			SourceSQL: "SELECT ORG, SUM(REVENUE) / NULLIF(SUM(VIEWERS), 0) FROM F GROUP BY ORG", SourceQuestion: "What is revenue per viewer for each organisation?"},
		{ID: "ex-shared", IntentIDs: []string{"audience", "revenue", "audience"},
			NL: "scan the financials table", Pseudo: "FROM F", SQL: "F", Clause: "from",
			SourceSQL: "SELECT ORG, SUM(REVENUE) / NULLIF(SUM(VIEWERS), 0) FROM F GROUP BY ORG", SourceQuestion: "What is revenue per viewer for each organisation?"},
		{ID: "ex-nosource", IntentIDs: []string{"audience"},
			NL: "total viewers per quarter", Pseudo: "SUM(VIEWERS) ... GROUP BY QUARTER",
			SQL: "SUM(VIEWERS)", Clause: "projection"},
		{ID: "ex-sqlonly", IntentIDs: []string{"revenue"},
			NL: "top organisations by revenue", Pseudo: "ORDER BY SUM(REVENUE) DESC",
			SQL: "SUM(REVENUE) DESC", Clause: "order_by",
			SourceSQL: "SELECT ORG FROM F GROUP BY ORG ORDER BY SUM(REVENUE) DESC"},
		{ID: "ex-empty", IntentIDs: []string{"revenue"}, SQL: "1", Clause: "projection"},
		{ID: "ex-unfiled", NL: "viewers in canada last year", Pseudo: "WHERE COUNTRY = 'Canada'",
			SQL: "COUNTRY = 'Canada'", Clause: "where", SourceQuestion: "How many viewers in Canada?"},
	}
	for _, ex := range examples {
		if err := kset.InsertExample(ex, "t", ""); err != nil {
			t.Fatal(err)
		}
	}
	instructions := []*knowledge.Instruction{
		{ID: "ins-rpv", IntentIDs: []string{"revenue", "audience", "revenue"},
			Text: "RPV means revenue per viewer", SQLHint: "SUM(REVENUE) / NULLIF(SUM(VIEWERS), 0)", Terms: []string{"RPV"}},
		{ID: "ins-quarter", IntentIDs: []string{"audience"}, Text: "quarters are calendar quarters"},
		{ID: "ins-global", Text: "revenue per viewer is reported per organisation, never per team"},
		{ID: "ins-empty", IntentIDs: []string{"revenue"}},
	}
	for _, ins := range instructions {
		if err := kset.InsertInstruction(ins, "t", ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range directives {
		kset.AddDirective(d, "t", "")
	}
	return kset
}

// TestSelectionMatchesReferenceHandBuilt is TestSelectionMatchesReference
// over handBuiltSet, without and with directives (the boost the engine
// computed at build time against the boost recomputed per request), on the
// plain scan and with both indexes forced through the ANN partitions.
func TestSelectionMatchesReferenceHandBuilt(t *testing.T) {
	suite := workload.NewSuite(1)
	model := simllm.New(simllm.GenEditProfile(), suite.Registry, 42)
	db := suite.Databases["sports_holdings"]
	queries := []struct {
		text      string
		intentIDs []string
	}{
		{"revenue per viewer for each organisation", []string{"revenue", "audience"}},
		{"revenue per viewer for each organisation", []string{"revenue", "revenue"}},
		{"how many viewers in canada", []string{"audience"}},
		{"RPV by organisation never per team", nil},
		{"calendar quarters", []string{"no-such-intent"}},
		{"", []string{"revenue"}},
	}
	// A restored state is not checked for an ID listed twice; the walk the
	// reference does meets the item twice and keeps it once.
	repeated := handBuiltSet(t).State()
	repeated.Examples = append(repeated.Examples, repeated.Examples[1])
	repeated.Instructions = append(repeated.Instructions, repeated.Instructions[0])
	sets := map[string]*knowledge.Set{
		"no_directives":    handBuiltSet(t),
		"directives":       handBuiltSet(t, "prefer revenue per viewer definitions", "calendar quarters"),
		"repeated_listing": knowledge.FromState(repeated),
	}
	for name, kset := range sets {
		for _, annMinSize := range []int{0, 1} {
			ret := retrieval{exFanout: 2, insFanout: 2, ann: embed.ANNConfig{MinSize: annMinSize}}
			base := newEngine(model, kset, db, DefaultConfig(), ret)
			compared := 0
			for _, q := range queries {
				label := fmt.Sprintf("%s/ann_min_size=%d/%q%v", name, annMinSize, q.text, q.intentIDs)
				compared += compareSelectors(t, base, label, embed.Text(q.text), q.intentIDs)
			}
			if compared == 0 {
				t.Fatalf("%s: nothing was selected, so nothing was compared", name)
			}
		}
	}
	// The directives must actually reach a score, or the case proves nothing.
	boosted := New(model, sets["directives"], db, DefaultConfig())
	nonzero := false
	for _, b := range boosted.ins.boost {
		nonzero = nonzero || b > 0
	}
	if !nonzero {
		t.Error("no instruction received a directive boost")
	}
}

// TestSelectTopEdges covers what the suites cannot: no candidates at all,
// and ties on score broken by ID whatever order the candidates arrive in.
func TestSelectTopEdges(t *testing.T) {
	ids := []string{"d", "b", "e", "a", "c", "f"}
	scores := []float64{1, 2, 1, 1, 2, 0.5}
	pick := func(order []int, k int) []string {
		ranked := make([]scoredPos, len(order))
		for i, p := range order {
			ranked[i] = scoredPos{pos: p, score: scores[p]}
		}
		got := []string{}
		for _, sp := range selectTop(ranked, k, func(p int) string { return ids[p] }) {
			got = append(got, ids[sp.pos])
		}
		return got
	}
	if got := pick(nil, 3); len(got) != 0 {
		t.Errorf("no candidates: got %v, want nothing", got)
	}
	order := []int{0, 1, 2, 3, 4, 5}
	for k, want := range [][]string{{}, {"b"}, {"b", "c"}, {"b", "c", "a"}, {"b", "c", "a", "d"}} {
		for rot := range order {
			rotated := append(append([]int(nil), order[rot:]...), order[:rot]...)
			if got := pick(rotated, k); !reflect.DeepEqual(got, want) {
				t.Errorf("k=%d rotation %d: got %v, want %v", k, rot, got, want)
			}
		}
	}
}
