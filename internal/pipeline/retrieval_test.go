package pipeline

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"genedit/internal/embed"
	"genedit/internal/knowledge"
	"genedit/internal/llm"
	"genedit/internal/simllm"
	"genedit/internal/workload"
)

// selections is what operators 3-4 return for one query.
type selections struct {
	examples     []llm.RetrievedExample
	instructions []llm.RetrievedInstruction
}

func selectBoth(e *Engine, q selectorQuery) selections {
	examples := e.selectExamples(q.qv, q.intentIDs)
	return selections{examples, e.selectInstructions(q.qv, q.intentIDs, examples)}
}

func sameSelections(got, want selections) error {
	if err := sameSelection(got.examples, want.examples,
		func(x llm.RetrievedExample) float64 { return x.Score }); err != nil {
		return fmt.Errorf("examples: %v", err)
	}
	if err := sameSelection(got.instructions, want.instructions,
		func(x llm.RetrievedInstruction) float64 { return x.Score }); err != nil {
		return fmt.Errorf("instructions: %v", err)
	}
	return nil
}

// sameBacking reports whether two embeddings store their values in one
// array: the second is the first, shared, not embedded again.
func sameBacking(a, b embed.Embedded) bool {
	va, vb := reflect.ValueOf(a).FieldByName("val"), reflect.ValueOf(b).FieldByName("val")
	return va.Len() > 0 && va.Len() == vb.Len() && va.Pointer() == vb.Pointer()
}

// TestWithKnowledgeCarriesVectors: after each kind of edit the staged engine
// selects exactly what an engine built from scratch over the same set
// selects, every item the edit left alone shares the parent's vectors
// instead of being embedded again, and each index holds one vector slot per
// distinct text, as a fresh build does. The edits include an update and a
// delete of one member of a group of examples that share a text, and so a
// vector slot.
func TestWithKnowledgeCarriesVectors(t *testing.T) {
	const db = "sports_holdings"
	suite := workload.NewSuite(1)
	model := simllm.New(simllm.GenEditProfile(), suite.Registry, 42)
	kset, err := suite.BuildKnowledge(db)
	if err != nil {
		t.Fatal(err)
	}
	parent := New(model, kset, suite.Databases[db], DefaultConfig())
	queries := selectorQueries(t, suite, model, parent, db)
	firstEx, firstIns := kset.Examples()[0], kset.Instructions()[0]
	var grouped *knowledge.Example // an example whose text another example shares
	texts := make(map[string]int)
	for _, ex := range kset.Examples() {
		texts[ex.Text()]++
	}
	for _, ex := range kset.Examples() {
		if texts[ex.Text()] > 1 {
			grouped = ex
			break
		}
	}
	if grouped == nil {
		t.Fatalf("no two examples of %s share a text", db)
	}

	edits := map[string]func(*knowledge.Set) error{
		"insert example": func(s *knowledge.Set) error {
			return s.InsertExample(&knowledge.Example{
				ID: "ex-new", IntentIDs: firstEx.IntentIDs,
				NL: "revenue per viewer by organisation", Pseudo: "SUM(REVENUE) / SUM(VIEWERS)", SQL: "SUM(REVENUE) / SUM(VIEWERS)",
				SourceSQL: "SELECT 1", SourceQuestion: firstEx.SourceQuestion,
			}, "t", "")
		},
		"update example text": func(s *knowledge.Set) error {
			ex := *firstEx
			ex.NL += " for sports organisations"
			return s.UpdateExample(&ex, "t", "")
		},
		"update example source question": func(s *knowledge.Set) error {
			ex := *firstEx
			ex.SourceQuestion = "a question nobody asked before"
			return s.UpdateExample(&ex, "t", "")
		},
		"delete example": func(s *knowledge.Set) error { return s.DeleteExample(firstEx.ID, "t", "") },
		"update shared-text example": func(s *knowledge.Set) error {
			ex := *grouped
			ex.Pseudo += " -- checked"
			return s.UpdateExample(&ex, "t", "")
		},
		"delete shared-text example": func(s *knowledge.Set) error { return s.DeleteExample(grouped.ID, "t", "") },
		"insert instruction": func(s *knowledge.Set) error {
			return s.InsertInstruction(&knowledge.Instruction{
				ID: "ins-new", IntentIDs: firstIns.IntentIDs, Text: "report revenue in Canadian dollars",
			}, "t", "")
		},
		"update instruction hint": func(s *knowledge.Set) error {
			ins := *firstIns
			ins.SQLHint += " /* checked */"
			return s.UpdateInstruction(&ins, "t", "")
		},
		"update instruction text": func(s *knowledge.Set) error {
			ins := *firstIns
			ins.Text += " unless told otherwise"
			return s.UpdateInstruction(&ins, "t", "")
		},
		"delete instruction": func(s *knowledge.Set) error { return s.DeleteInstruction(firstIns.ID, "t", "") },
		"add directive": func(s *knowledge.Set) error {
			s.AddDirective("prefer quarterly revenue definitions", "t", "")
			return nil
		},
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			staged := kset.CloneFull()
			if err := edit(staged); err != nil {
				t.Fatal(err)
			}
			carried := parent.WithKnowledge(staged)
			fresh := New(model, staged, suite.Databases[db], DefaultConfig())
			for _, q := range queries {
				if err := sameSelections(selectBoth(carried, q), selectBoth(fresh, q)); err != nil {
					t.Fatalf("%s: carried-over engine differs from a fresh build: %v", q.label, err)
				}
			}
			if got, want := carried.exIndex.Slots(), distinct(staged.Examples(), (*knowledge.Example).Text); got != want {
				t.Errorf("carried example index holds %d vector slots, want one per distinct text, %d", got, want)
			}
			if got, want := carried.insIndex.Slots(), distinct(staged.Instructions(), (*knowledge.Instruction).RetrievalText); got != want {
				t.Errorf("carried instruction index holds %d vector slots, want one per distinct text, %d", got, want)
			}

			shared, embedded := 0, 0
			count := func(same bool) {
				if same {
					shared++
				} else {
					embedded++
				}
			}
			for p, ex := range carried.ex.items {
				pp, ok := parent.exIndex.Pos(ex.ID)
				if !ok {
					continue
				}
				old := parent.ex.items[pp]
				if old.NL == ex.NL && old.Pseudo == ex.Pseudo {
					count(sameBacking(vectorAt(carried.exIndex, p), vectorAt(parent.exIndex, pp)))
				}
				if old.NL == ex.NL && old.SQL == ex.SQL {
					count(sameBacking(carried.ex.pairVecs[p], parent.ex.pairVecs[pp]))
				}
				if ex.SourceQuestion != "" && old.SourceQuestion == ex.SourceQuestion {
					count(sameBacking(carried.ex.srcVecs[carried.ex.srcSlot[p]], parent.ex.srcVecs[parent.ex.srcSlot[pp]]))
				}
			}
			for p, ins := range carried.ins.items {
				pp, ok := parent.insIndex.Pos(ins.ID)
				if !ok {
					continue
				}
				old := parent.ins.items[pp]
				if old.Text == ins.Text {
					count(sameBacking(carried.ins.textVecs[p], parent.ins.textVecs[pp]))
				}
				if old.Text == ins.Text && old.SQLHint == ins.SQLHint {
					count(sameBacking(vectorAt(carried.insIndex, p), vectorAt(parent.insIndex, pp)))
				}
			}
			if embedded != 0 || shared == 0 {
				t.Errorf("%d unchanged vectors were embedded again, %d shared with the parent", embedded, shared)
			}
		})
	}
}

// vectorAt is the stored vector of the item at position p.
func vectorAt(ix *embed.Index, p int) embed.Embedded { return ix.Vectors()[ix.Slot(p)] }

// distinct counts the distinct texts of a listing.
func distinct[T any](items []T, text func(T) string) int {
	seen := make(map[string]bool)
	for _, it := range items {
		seen[text(it)] = true
	}
	return len(seen)
}

// TestSelectorsConcurrent: goroutines sharing one engine (and the scratch
// pool) over the 40x suite select exactly what a serial pass selects. Run
// under -race by ci.sh.
func TestSelectorsConcurrent(t *testing.T) {
	e, queries := scaledEngine(t, 40)
	want := make([]selections, len(queries))
	for i, q := range queries {
		want[i] = selectBoth(e, q)
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts elsewhere, so different queries overlap.
			for n := range queries {
				i := (n + w*len(queries)/workers) % len(queries)
				if err := sameSelections(selectBoth(e, queries[i]), want[i]); err != nil {
					t.Errorf("worker %d, %s: differs from the serial pass: %v", w, queries[i].label, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// scaledEngine builds the sports_holdings engine at a knowledge factor and
// the selector inputs of its cases.
func scaledEngine(tb testing.TB, knowledgeFactor int) (*Engine, []selectorQuery) {
	tb.Helper()
	const db = "sports_holdings"
	suite := workload.NewScaledSuite(1, workload.ScaleConfig{DBFactor: 1, KnowledgeFactor: knowledgeFactor})
	model := simllm.New(simllm.GenEditProfile(), suite.Registry, 42)
	kset, err := suite.BuildKnowledge(db)
	if err != nil {
		tb.Fatal(err)
	}
	e := New(model, kset, suite.Databases[db], DefaultConfig())
	return e, selectorQueries(tb, suite, model, e, db)
}

// TestSelectExamplesAllocsIndependentOfKnowledge: a selector request
// allocates its result and nothing else, whatever the size of the knowledge
// set; the candidate marks, the scores of the one pass over the index and
// the ranking live in pooled scratch. selectInstructions is held to the same.
func TestSelectExamplesAllocsIndependentOfKnowledge(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop its contents")
	}
	type counts struct{ examples, instructions float64 }
	allocs := func(knowledgeFactor int) counts {
		e, queries := scaledEngine(t, knowledgeFactor)
		q := queries[0]
		examples := e.selectExamples(q.qv, q.intentIDs)
		return counts{
			examples:     testing.AllocsPerRun(200, func() { e.selectExamples(q.qv, q.intentIDs) }),
			instructions: testing.AllocsPerRun(200, func() { e.selectInstructions(q.qv, q.intentIDs, examples) }),
		}
	}
	small, large := allocs(1), allocs(40)
	if small != large {
		t.Errorf("allocations per call at 1x knowledge %+v, at 40x %+v", small, large)
	}
	if small.examples > 1 || small.instructions > 1 {
		t.Errorf("allocations per call %+v, want 1 each (the result)", small)
	}
}

var selectorSink int

func BenchmarkSelectExamples(b *testing.B) {
	for _, factor := range []int{1, 40} {
		b.Run(fmt.Sprintf("knowledge_x%d", factor), func(b *testing.B) {
			e, queries := scaledEngine(b, factor)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				selectorSink += len(e.selectExamples(q.qv, q.intentIDs))
			}
		})
	}
}

func BenchmarkSelectInstructions(b *testing.B) {
	for _, factor := range []int{1, 40} {
		b.Run(fmt.Sprintf("knowledge_x%d", factor), func(b *testing.B) {
			e, queries := scaledEngine(b, factor)
			examples := make([][]llm.RetrievedExample, len(queries))
			for i, q := range queries {
				examples[i] = e.selectExamples(q.qv, q.intentIDs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				selectorSink += len(e.selectInstructions(q.qv, q.intentIDs, examples[i%len(queries)]))
			}
		})
	}
}
