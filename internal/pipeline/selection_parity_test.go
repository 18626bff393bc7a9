package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"genedit/internal/embed"
	"genedit/internal/knowledge"
	"genedit/internal/llm"
	"genedit/internal/simllm"
	"genedit/internal/workload"
)

// The three selectors used to build a prompt entry for every candidate and
// stable-sort the lot. Those bodies are kept here as the reference selectTop
// must match: same IDs, same order, same Score bits.

func referenceSort[T any](s []T, score func(T) float64, id func(T) string) {
	sort.SliceStable(s, func(i, j int) bool {
		if score(s[i]) != score(s[j]) {
			return score(s[i]) > score(s[j])
		}
		return id(s[i]) < id(s[j])
	})
}

func referenceSelectExamples(e *Engine, qv embed.Vector, intentIDs []string) []llm.RetrievedExample {
	if e.cfg.DisableDecomposition {
		scored := make([]llm.RetrievedExample, 0, len(e.fullExs))
		for _, fe := range e.fullExs {
			scored = append(scored, llm.RetrievedExample{
				ID:      fe.id,
				NL:      fe.nl,
				FullSQL: fe.sql,
				Score:   embed.Cosine(qv, fe.vec),
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
	for _, hit := range e.exIndex.SearchVector(qv, e.cfg.ExampleFanout) {
		if ex := e.kset.Example(hit.ID); ex != nil && !seen[ex.ID] {
			seen[ex.ID] = true
			candidates = append(candidates, ex)
		}
	}
	scored := make([]llm.RetrievedExample, 0, len(candidates))
	for _, ex := range candidates {
		exVec := e.exIndex.Vector(ex.ID)
		if exVec == nil {
			exVec = embed.Text(ex.Text())
		}
		score := embed.Cosine(qv, exVec)
		if ex.SourceQuestion != "" {
			sv, ok := e.srcQVecs[ex.SourceQuestion]
			if !ok {
				sv = embed.Text(ex.SourceQuestion)
			}
			if s := 0.92 * embed.Cosine(qv, sv); s > score {
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
	for _, hit := range e.insIndex.SearchVector(qv, e.cfg.InstructionFanout) {
		if ins := e.kset.Instruction(hit.ID); ins != nil && !seen[ins.ID] {
			seen[ins.ID] = true
			candidates = append(candidates, ins)
		}
	}
	exVecs := make([]embed.Vector, len(examples))
	for i, ex := range examples {
		v, ok := e.exPairVecs[ex.ID]
		if !ok {
			v = embed.Text(ex.NL + " " + ex.SQL)
		}
		exVecs[i] = v
	}
	directiveBoost := e.directiveBoost()

	var scored []llm.RetrievedInstruction
	for _, ins := range candidates {
		insVec := e.insIndex.Vector(ins.ID)
		if insVec == nil {
			insVec = embed.Text(ins.Text + " " + ins.SQLHint)
		}
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

// TestSelectionMatchesReference runs every case question of the standard
// suite, and of a suite with 40x query-log knowledge (candidate sets in the
// thousands, indexes past the ANN threshold), through the three selectors
// and their references, at the production cut-offs and at cut-offs of 0, 1
// and more than there are candidates.
func TestSelectionMatchesReference(t *testing.T) {
	suites := map[string]*workload.Suite{
		"standard":      workload.NewSuite(1),
		"knowledge_x40": workload.NewScaledSuite(1, workload.ScaleConfig{DBFactor: 1, KnowledgeFactor: 40}),
	}
	for name, suite := range suites {
		t.Run(name, func(t *testing.T) {
			model := simllm.New(simllm.GenEditProfile(), suite.Registry, 42)
			engines := make(map[string]*Engine)
			compared := 0
			for _, c := range suite.Cases {
				base := engines[c.DB]
				if base == nil {
					kset, err := suite.BuildKnowledge(c.DB)
					if err != nil {
						t.Fatal(err)
					}
					base = New(model, kset, suite.Databases[c.DB], DefaultConfig())
					engines[c.DB] = base
				}
				reformulated, err := model.Reformulate(c.Question)
				if err != nil {
					t.Fatal(err)
				}
				intentIDs, err := model.ClassifyIntents(reformulated, base.intentOpts)
				if err != nil {
					t.Fatal(err)
				}
				qv := embed.Text(reformulated)

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
							t.Fatalf("%s examples (top %d, full-query %v): %v", c.ID, cut.examples, fullQuery, err)
						}
						instructions := e.selectInstructions(qv, intentIDs, examples)
						if err := sameSelection(instructions, referenceSelectInstructions(&e, qv, intentIDs, examples),
							func(x llm.RetrievedInstruction) float64 { return x.Score }); err != nil {
							t.Fatalf("%s instructions (top %d, full-query %v): %v", c.ID, cut.instructions, fullQuery, err)
						}
						compared += len(examples) + len(instructions)
					}
				}
			}
			if compared == 0 {
				t.Fatal("nothing was selected, so nothing was compared")
			}
		})
	}
}

// TestSelectTopEdges covers what the suites cannot: no candidates at all,
// and ties on score broken by ID whatever order the candidates arrive in.
func TestSelectTopEdges(t *testing.T) {
	type cand struct {
		id    string
		score float64
	}
	pick := func(cands []*cand, k int) []string {
		return selectTop(cands, k,
			func(c *cand) string { return c.id },
			func(c *cand) float64 { return c.score },
			func(c *cand, _ float64) string { return c.id })
	}
	if got := pick(nil, 3); got == nil || len(got) != 0 {
		t.Errorf("no candidates: got %#v, want an empty non-nil slice", got)
	}
	cands := []*cand{{"d", 1}, {"b", 2}, {"e", 1}, {"a", 1}, {"c", 2}, {"f", 0.5}}
	for k, want := range [][]string{{}, {"b"}, {"b", "c"}, {"b", "c", "a"}, {"b", "c", "a", "d"}} {
		for rot := range cands {
			rotated := append(append([]*cand(nil), cands[rot:]...), cands[:rot]...)
			if got := pick(rotated, k); !reflect.DeepEqual(got, want) {
				t.Errorf("k=%d rotation %d: got %v, want %v", k, rot, got, want)
			}
		}
	}
}
