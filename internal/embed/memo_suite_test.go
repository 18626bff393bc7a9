package embed_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"genedit/internal/decompose"
	"genedit/internal/embed"
	"genedit/internal/llm"
	"genedit/internal/pipeline"
	"genedit/internal/simllm"
	"genedit/internal/workload"
)

// memoTexts lists every text of a suite that the request path asks the memo
// for: example SQL (fragments and full queries), each case's gold SQL and
// its decomposed fragments, intent option texts, and the questions.
func memoTexts(t *testing.T, suite *workload.Suite) []string {
	t.Helper()
	seen := map[string]bool{}
	var out []string
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for db := range suite.Databases {
		kset, err := suite.BuildKnowledge(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range kset.Examples() {
			add(ex.SQL)
			add(ex.SourceSQL)
		}
		for _, in := range kset.Intents() {
			add(in.Name + " " + in.Description)
		}
	}
	for _, c := range suite.Cases {
		add(c.Question)
		add(c.GoldSQL)
		frags, err := decompose.DecomposeSQL(c.GoldSQL)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frags {
			add(f.SQL)
		}
	}
	return out
}

// TestMemoBitIdenticalOverSuites checks the memo's sparse entries against
// Text and Norm2 on every knowledge-set, gold-fragment, intent and question
// string of the standard suite and of the 40x-knowledge suite — cold, then
// warm: densified, each gives Text's bits, and its norm is Norm2's.
func TestMemoBitIdenticalOverSuites(t *testing.T) {
	defer embed.ResetMemo(0)()
	suites := map[string]*workload.Suite{
		"standard": workload.NewSuite(1),
		"40x":      workload.NewScaledSuite(1, workload.ScaleConfig{DBFactor: 1, KnowledgeFactor: 40}),
	}
	for name, suite := range suites {
		texts := memoTexts(t, suite)
		for pass := 0; pass < 2; pass++ {
			for _, s := range texts {
				e := embed.Memo(s)
				want, got := embed.Text(s), e.AppendDense(nil)
				if len(got) != len(want) {
					t.Fatalf("%s pass %d: %q densifies to %d dims, Text gives %d", name, pass, s, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s pass %d: %q dim %d = %v, Text gives %v", name, pass, s, i, got[i], want[i])
					}
				}
				if math.Float64bits(e.Norm2) != math.Float64bits(embed.Norm2(want)) {
					t.Fatalf("%s pass %d: %q norm %v, Norm2 gives %v", name, pass, s, e.Norm2, embed.Norm2(want))
				}
			}
		}
		t.Logf("%s: %d distinct texts", name, len(texts))
	}
}

// TestModelOutputsIndependentOfMemoState runs intent classification and
// planning (through whole generations, so the plan sees real retrieved
// examples) for every case of one database with the memo cold, warm, and so
// small that every request evicts what the previous one embedded: the
// intents, plans and generated SQL must be DeepEqual across the three.
func TestModelOutputsIndependentOfMemoState(t *testing.T) {
	defer embed.ResetMemo(0)()
	suite := workload.NewSuite(1)
	const db = "sports_holdings"
	kset, err := suite.BuildKnowledge(db)
	if err != nil {
		t.Fatal(err)
	}
	model := simllm.New(simllm.GenEditProfile(), suite.Registry, 42)
	engine := pipeline.New(model, kset, suite.Databases[db], pipeline.DefaultConfig())
	var options []llm.IntentOption
	for _, in := range kset.Intents() {
		options = append(options, llm.IntentOption{ID: in.ID, Name: in.Name, Description: in.Description})
	}

	type output struct {
		Intents  []string
		Classify []string
		Plan     llm.Plan
		SQL      string
	}
	run := func() []output {
		var outs []output
		for _, c := range suite.Cases {
			if c.DB != db {
				continue
			}
			rec, err := engine.GenerateContext(context.Background(), c.Question, c.Evidence)
			if err != nil {
				t.Fatal(err)
			}
			ids, err := model.ClassifyIntents(rec.Reformulated, options)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := model.Plan(&rec.Context)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, output{Intents: rec.IntentIDs, Classify: ids, Plan: plan, SQL: rec.FinalSQL})
		}
		return outs
	}

	embed.ResetMemo(0)
	cold := run()
	if embed.MemoSize() == 0 {
		t.Fatal("a run left the memo empty: the model is not reading through it")
	}
	warm := run()
	embed.ResetMemo(2)
	evicted := run()
	if n := embed.MemoSize(); n > 2 {
		t.Fatalf("memo of capacity 2 holds %d entries", n)
	}
	if len(cold) == 0 {
		t.Fatal("no cases ran")
	}
	for name, other := range map[string][]output{"warm": warm, "evicted": evicted} {
		if !reflect.DeepEqual(cold, other) {
			for i := range cold {
				if !reflect.DeepEqual(cold[i], other[i]) {
					t.Fatalf("case %d differs between a cold and a %s memo:\n%s\nvs\n%s", i, name, fmt.Sprint(cold[i]), fmt.Sprint(other[i]))
				}
			}
		}
	}
}
