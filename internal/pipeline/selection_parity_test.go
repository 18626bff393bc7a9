package pipeline

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
// engine's tables against the texts they claim to embed; and where they
// asked the index for its global top-k, referenceSearch scores and sorts the
// whole set itself.

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

// referenceSearch is the global similarity search: every listed item scored
// by a dense embed.Cosine against the text it is indexed by, fully sorted
// (score descending, ID ascending) and cut at k. An ID listed twice is
// scored once.
func referenceSearch(qv embed.Vector, k int, ids []string, text func(id string) string) []string {
	type hit struct {
		id    string
		score float64
	}
	seen := make(map[string]bool)
	var hits []hit
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			hits = append(hits, hit{id: id, score: embed.Cosine(qv, refVec(text(id)))})
		}
	}
	referenceSort(hits, func(h hit) float64 { return h.score }, func(h hit) string { return h.id })
	out := make([]string, 0, k)
	for _, h := range hits[:min(k, len(hits))] {
		out = append(out, h.id)
	}
	return out
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
		if len(scored) > e.ret.topExamples {
			scored = scored[:e.ret.topExamples]
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
	var listed []string
	for _, ex := range e.kset.Examples() {
		listed = append(listed, ex.ID)
	}
	exampleText := func(id string) string { return e.kset.Example(id).Text() }
	for _, id := range referenceSearch(qv, e.ret.exFanout, listed, exampleText) {
		if ex := e.kset.Example(id); !seen[ex.ID] {
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
	if len(scored) > e.ret.topExamples {
		scored = scored[:e.ret.topExamples]
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
	var listed []string
	for _, ins := range e.kset.Instructions() {
		listed = append(listed, ins.ID)
	}
	instructionText := func(id string) string { return e.kset.Instruction(id).RetrievalText() }
	for _, id := range referenceSearch(qv, e.ret.insFanout, listed, instructionText) {
		if ins := e.kset.Instruction(id); !seen[ins.ID] {
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
			score += e.ret.expansionWeight * maxEx
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
	if len(scored) > e.ret.topInstructions {
		scored = scored[:e.ret.topInstructions]
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
// than there are candidates, with decomposition and without it (the "w/o
// Decomposition" leg, which regroups fragments into full-query examples).
// It returns how many entries it compared in each leg.
func compareSelectors(t *testing.T, base *Engine, label string, qv embed.Vector, intentIDs []string) (decomposed, fullQueryLeg int) {
	t.Helper()
	for _, cut := range []struct{ examples, instructions int }{
		{base.ret.topExamples, base.ret.topInstructions},
		{0, 0}, {1, 1}, {1 << 20, 1 << 20},
	} {
		for _, fullQuery := range []bool{false, true} {
			e := *base // engines hold no locks: a shallow copy with its own settings is safe
			e.ret.topExamples = cut.examples
			e.ret.topInstructions = cut.instructions
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
			if fullQuery {
				fullQueryLeg += len(examples) + len(instructions)
			} else {
				decomposed += len(examples) + len(instructions)
			}
		}
	}
	return decomposed, fullQueryLeg
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
// hundreds, nine items to a distinct text), at workload seeds 1 and 7,
// through the three selectors and their references, with decomposition and
// without.
func TestSelectionMatchesReference(t *testing.T) {
	suites := map[string]*workload.Suite{
		"standard":            workload.NewSuite(1),
		"standard_seed7":      workload.NewSuite(7),
		"knowledge_x40":       workload.NewScaledSuite(1, workload.ScaleConfig{DBFactor: 1, KnowledgeFactor: 40}),
		"knowledge_x40_seed7": workload.NewScaledSuite(7, workload.ScaleConfig{DBFactor: 1, KnowledgeFactor: 40}),
	}
	for name, suite := range suites {
		t.Run(name, func(t *testing.T) {
			model := simllm.New(simllm.GenEditProfile(), suite.Registry, 42)
			decomposed, fullQuery := 0, 0
			for db, base := range suiteEngines(t, suite, model) {
				for _, q := range selectorQueries(t, suite, model, base, db) {
					d, f := compareSelectors(t, base, q.label, q.qv, q.intentIDs)
					decomposed, fullQuery = decomposed+d, fullQuery+f
				}
			}
			if decomposed == 0 || fullQuery == 0 {
				t.Fatalf("compared %d entries with decomposition and %d without: a leg selected nothing", decomposed, fullQuery)
			}
		})
	}
}

// handBuiltSet covers the table shapes the generated suites do not: an
// example filed under two intents, an intent named twice by one item,
// fragments sharing a source question, an example without one, an example
// whose text embeds to the zero vector, an instruction no intent lists, and
// (optionally) retrieval directives. Some items share a text, and so a
// vector slot: examples with the text of ex-both under another source
// question and under none; two examples with one text and one source
// question, whose tie the ID order breaks across a third example's ID; and
// an instruction with the text of ins-rpv.
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
		{ID: "ex-both-again", IntentIDs: []string{"audience"},
			NL: "revenue per viewer by organisation", Pseudo: "SUM(REVENUE) / SUM(VIEWERS)",
			SQL: "SUM(REVENUE) / SUM(VIEWERS)", Clause: "projection",
			SourceSQL: "SELECT ORG, SUM(REVENUE) / SUM(VIEWERS) FROM F GROUP BY ORG", SourceQuestion: "Which organisation earns most per viewer?"},
		{ID: "ex-both-bare", IntentIDs: []string{"revenue"},
			NL: "revenue per viewer by organisation", Pseudo: "SUM(REVENUE) / SUM(VIEWERS)",
			SQL: "SUM(REVENUE) / SUM(VIEWERS)", Clause: "projection"},
		{ID: "ex-tie-c", IntentIDs: []string{"audience"},
			NL: "viewers per organisation", Pseudo: "SUM(VIEWERS) GROUP BY ORG", SQL: "SUM(VIEWERS)", Clause: "projection",
			SourceSQL: "SELECT ORG, SUM(VIEWERS) FROM F GROUP BY ORG", SourceQuestion: "How many viewers does each organisation have?"},
		{ID: "ex-tie-b", IntentIDs: []string{"audience"},
			NL: "organisations by viewers", Pseudo: "ORDER BY SUM(VIEWERS) DESC", SQL: "SUM(VIEWERS) DESC", Clause: "order_by",
			SourceSQL: "SELECT ORG FROM F GROUP BY ORG ORDER BY SUM(VIEWERS) DESC", SourceQuestion: "Which organisations have the most viewers?"},
		{ID: "ex-tie-a", IntentIDs: []string{"revenue", "audience"},
			NL: "viewers per organisation", Pseudo: "SUM(VIEWERS) GROUP BY ORG", SQL: "SUM(VIEWERS)", Clause: "projection",
			SourceSQL: "SELECT ORG, SUM(VIEWERS) FROM F GROUP BY ORG", SourceQuestion: "How many viewers does each organisation have?"},
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
		{ID: "ins-rpv-copy", IntentIDs: []string{"audience"},
			Text: "RPV means revenue per viewer", SQLHint: "SUM(REVENUE) / NULLIF(SUM(VIEWERS), 0)"},
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
// computed at build time against the boost recomputed per request), with a
// global fan-out of 2, which leaves some items to the intent postings alone,
// and with the production fan-outs, which reach every item.
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
		{"how many viewers does each organisation have", []string{"audience"}},
		{"viewers per organisation", nil},
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
		narrow := defaultRetrieval
		narrow.exFanout, narrow.insFanout = 2, 2
		for _, ret := range []retrieval{narrow, defaultRetrieval} {
			base := newEngine(model, kset, db, DefaultConfig(), ret)
			compared := 0
			for _, q := range queries {
				label := fmt.Sprintf("%s/fanout=%d,%d/%q%v", name, ret.exFanout, ret.insFanout, q.text, q.intentIDs)
				d, f := compareSelectors(t, base, label, embed.Text(q.text), q.intentIDs)
				compared += d + f
			}
			if compared == 0 {
				t.Fatalf("%s: nothing was selected, so nothing was compared", name)
			}
		}
	}
	// Shared vector slots must exist and decide a tie, or the shared-text
	// items prove nothing.
	shared := New(model, sets["no_directives"], db, DefaultConfig())
	if shared.exIndex.Slots() >= shared.exIndex.Len() || shared.insIndex.Slots() >= shared.insIndex.Len() {
		t.Errorf("no shared vector slots: examples %d slots for %d items, instructions %d for %d",
			shared.exIndex.Slots(), shared.exIndex.Len(), shared.insIndex.Slots(), shared.insIndex.Len())
	}
	var tied []string
	for _, ex := range shared.selectExamples(embed.Text("viewers per organisation"), nil) {
		if ex.ID == "ex-tie-a" || ex.ID == "ex-tie-c" {
			tied = append(tied, ex.ID)
		}
	}
	if !reflect.DeepEqual(tied, []string{"ex-tie-a", "ex-tie-c"}) {
		t.Errorf("the same-text pair was selected as %v, want both, in ID order", tied)
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

// TestSelectTopEdges covers what the suites cannot: no candidates at all, a
// k of zero, below zero or beyond the candidates, ties on score broken by
// ID whatever order the candidates arrive in, and — over a larger set full
// of exact ties — every k against a full stable sort.
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
	all := []string{"b", "c", "a", "d", "e", "f"}
	for k, want := range map[int][]string{
		-1: {}, 0: {}, 1: {"b"}, 2: {"b", "c"}, 3: {"b", "c", "a"}, 4: {"b", "c", "a", "d"},
		6: all, 10: all,
	} {
		for rot := range order {
			rotated := append(append([]int(nil), order[rot:]...), order[:rot]...)
			if got := pick(rotated, k); !reflect.DeepEqual(got, want) {
				t.Errorf("k=%d rotation %d: got %v, want %v", k, rot, got, want)
			}
		}
	}

	// 300 candidates over a handful of score levels, in a shuffled order.
	rng := rand.New(rand.NewSource(13))
	levels := []float64{0.9, 0.5, 0.5 + 1e-16, 0, math.Copysign(0, -1), -0.25}
	n := 300
	many := make([]scoredPos, n)
	manyIDs := make([]string, n)
	for i, p := range rng.Perm(n) {
		many[i] = scoredPos{pos: p, score: levels[rng.Intn(len(levels))]}
		manyIDs[p] = fmt.Sprintf("item-%03d", (p*37)%n)
	}
	id := func(p int) string { return manyIDs[p] }
	want := append([]scoredPos(nil), many...)
	referenceSort(want, func(sp scoredPos) float64 { return sp.score }, func(sp scoredPos) string { return id(sp.pos) })
	for _, k := range []int{0, 1, 3, 8, 50, n - 1, n, n + 200} {
		got := selectTop(append([]scoredPos(nil), many...), k, id)
		if !reflect.DeepEqual(got, want[:min(k, n)]) {
			t.Errorf("%d candidates, k=%d: selectTop differs from the full sort", n, k)
		}
	}

	// The float-only pre-pass (more than 2k candidates, k within its
	// window) against the full sort: a tie group straddling the k-th score,
	// every score equal, -0 and +0 as the k-th score, k past the window,
	// and just 2k candidates, where the window ranks alone.
	negZero := math.Copysign(0, -1)
	shapes := map[string]struct {
		scores []float64
		ks     []int
	}{
		"tie straddles the kth": {levelled(40, []float64{0.9, 0.9, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.2}), []int{1, 2, 3, 4, 5, 9}},
		"all equal":             {levelled(50, []float64{0.5}), []int{1, 7, 24}},
		"signed zeros":          {levelled(60, []float64{0.1, 0, negZero, negZero, 0, -0.1}), []int{1, 5, 10, 20, 29}},
		"k past the window":     {levelled(3*(kthWindow+1), []float64{0.3, 0.2, 0.2, 0.1}), []int{kthWindow, kthWindow + 1}},
		"2k candidates":         {levelled(48, []float64{0.4, 0.3, 0.3}), []int{24, 23, 25}},
	}
	for name, sh := range shapes {
		ranked := make([]scoredPos, len(sh.scores))
		shapeIDs := make([]string, len(sh.scores))
		for i, p := range rng.Perm(len(sh.scores)) {
			ranked[i] = scoredPos{pos: p, score: sh.scores[p]}
			shapeIDs[p] = fmt.Sprintf("id-%03d", (p*29)%len(sh.scores))
		}
		id := func(p int) string { return shapeIDs[p] }
		want := sortedByRetrievalOrder(ranked, id)
		for _, k := range sh.ks {
			if got := selectTop(append([]scoredPos(nil), ranked...), k, id); !sameBits(got, want[:min(k, len(want))]) {
				t.Errorf("%s, k=%d: selectTop %v, full sort %v", name, k, got, want[:min(k, len(want))])
			}
		}
	}

	// A NaN score turns the pre-pass off: the retrieval order treats NaN as
	// a tie, so the result is the window's on the same input. The NaN entry
	// has the smallest ID, so the window keeps it, where a threshold would
	// have dropped it.
	withNaN := make([]scoredPos, 100)
	for i := range withNaN {
		withNaN[i] = scoredPos{pos: i, score: float64(i%7) / 7}
	}
	withNaN[63].score = math.NaN()
	nanID := func(p int) string {
		if p == 63 {
			return "a-nan"
		}
		return fmt.Sprintf("id-%03d", p)
	}
	for _, k := range []int{1, 5, 12} {
		got := selectTop(append([]scoredPos(nil), withNaN...), k, nanID)
		want := windowTop(append([]scoredPos(nil), withNaN...), k, nanID)
		if !sameBits(got, want) || !slices.ContainsFunc(got, func(sp scoredPos) bool { return sp.pos == 63 }) {
			t.Errorf("NaN among the scores, k=%d: selectTop %v, the window alone %v (with the NaN entry)", k, got, want)
		}
	}
}

// levelled is n scores cycling through the given levels.
func levelled(n int, levels []float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = levels[i%len(levels)]
	}
	return out
}

// sortedByRetrievalOrder is a fully sorted copy of ranked under the
// retrieval order: score descending, then ID ascending.
func sortedByRetrievalOrder(ranked []scoredPos, id func(int) string) []scoredPos {
	out := slices.Clone(ranked)
	slices.SortFunc(out, func(a, b scoredPos) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(id(a.pos), id(b.pos))
	})
	return out
}

// sameBits reports whether two rankings hold the same positions in the
// same order with the same score bits (DeepEqual would let -0 pass for +0
// and fail NaN against itself).
func sameBits(a, b []scoredPos) bool {
	return slices.EqualFunc(a, b, func(x, y scoredPos) bool {
		return x.pos == y.pos && math.Float64bits(x.score) == math.Float64bits(y.score)
	})
}

// TestKthScore: the pre-pass's threshold is the k-th largest score counting
// multiplicity, and it declines a NaN or a k past its window.
func TestKthScore(t *testing.T) {
	ranked := func(scores ...float64) []scoredPos {
		out := make([]scoredPos, len(scores))
		for i, x := range scores {
			out[i] = scoredPos{pos: i, score: x}
		}
		return out
	}
	for _, c := range []struct {
		scores []float64
		k      int
		want   float64
	}{
		{[]float64{0.1, 0.9, 0.5, 0.9, 0.3}, 1, 0.9},
		{[]float64{0.1, 0.9, 0.5, 0.9, 0.3}, 2, 0.9},
		{[]float64{0.1, 0.9, 0.5, 0.9, 0.3}, 3, 0.5},
		{[]float64{0.1, 0.9, 0.5, 0.9, 0.3}, 5, 0.1},
		{[]float64{-1, -2, -3}, 2, -2},
	} {
		if got, ok := kthScore(ranked(c.scores...), c.k); !ok || got != c.want {
			t.Errorf("kthScore(%v, %d) = %v, %v; want %v, true", c.scores, c.k, got, ok, c.want)
		}
	}
	if _, ok := kthScore(ranked(0.5, math.NaN(), 0.1), 1); ok {
		t.Error("kthScore took a NaN score")
	}
	if _, ok := kthScore(ranked(math.NaN(), 0.5, 0.1), 1); ok {
		t.Error("kthScore took a NaN score inside its first window")
	}
	if _, ok := kthScore(ranked(levelled(2*kthWindow+3, []float64{1, 2})...), kthWindow+1); ok {
		t.Error("kthScore took a k past its window")
	}
}

// TestSelectTopMatchesFullSort: over random candidate sets — sizes on both
// sides of 2k, k on both sides of the pre-pass's window, scores drawn from
// few levels (ties, ±0) or from many — selectTop returns the prefix of a
// full sort in the retrieval order, positions and score bits.
func TestSelectTopMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	negZero := math.Copysign(0, -1)
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(300)
		var levels []float64
		switch trial % 3 {
		case 0:
			levels = []float64{0.75, 0.5, 0, negZero, -0.5}
		case 1:
			levels = []float64{0.3}
		default:
			for range 1 + rng.Intn(200) {
				levels = append(levels, rng.Float64()*2-1)
			}
		}
		ranked := make([]scoredPos, n)
		ids := make([]string, n)
		for i, p := range rng.Perm(n) {
			ranked[i] = scoredPos{pos: p, score: levels[rng.Intn(len(levels))]}
			ids[p] = fmt.Sprintf("id-%04d", rng.Intn(10000)*1000+p) // unique, in no particular order
		}
		id := func(p int) string { return ids[p] }
		want := sortedByRetrievalOrder(ranked, id)
		k := rng.Intn(kthWindow + 20)
		if trial%5 == 0 {
			k = rng.Intn(n + 2)
		}
		got := selectTop(slices.Clone(ranked), k, id)
		if !sameBits(got, want[:max(0, min(k, n))]) {
			t.Fatalf("trial %d: %d candidates, k=%d: selectTop %v, full sort %v", trial, n, k, got, want[:max(0, min(k, n))])
		}
	}
}
