package knowledge

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func seedSet(t *testing.T) *Set {
	t.Helper()
	s := NewSet()
	s.AddIntent(&Intent{ID: "intent-001", Name: "financial performance"})
	s.AddIntent(&Intent{ID: "intent-002", Name: "viewership"})
	if err := s.InsertExample(&Example{
		ID: "ex-001", IntentIDs: []string{"intent-001"},
		NL: "Compute RPV as revenue over views", Pseudo: "... REVENUE / NULLIF(VIEWS, 0) ...",
		SQL: "REVENUE / NULLIF(VIEWS, 0)", Clause: "projection", Terms: []string{"RPV"},
	}, "preprocessing", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertInstruction(&Instruction{
		ID: "ins-001", IntentIDs: []string{"intent-001"},
		Text:  "Apply a -1 multiplier when calculating the change in performance metrics",
		Terms: []string{"QoQFP"},
	}, "preprocessing", ""); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInsertUpdateDeleteExample(t *testing.T) {
	s := seedSet(t)
	if got := len(s.Examples()); got != 1 {
		t.Fatalf("examples = %d, want 1", got)
	}
	updated := *s.Example("ex-001")
	updated.NL = "Compute revenue per viewer"
	if err := s.UpdateExample(&updated, "sme", "fb-1"); err != nil {
		t.Fatal(err)
	}
	if s.Example("ex-001").NL != "Compute revenue per viewer" {
		t.Error("update did not take effect")
	}
	if s.Example("ex-001").Provenance.Editor != "sme" {
		t.Error("provenance editor not recorded")
	}
	if err := s.DeleteExample("ex-001", "sme", "fb-1"); err != nil {
		t.Fatal(err)
	}
	if s.Example("ex-001") != nil {
		t.Error("delete did not take effect")
	}
	if err := s.DeleteExample("ex-001", "sme", ""); err == nil {
		t.Error("double delete should fail")
	}
}

func TestInsertDuplicateFails(t *testing.T) {
	s := seedSet(t)
	err := s.InsertExample(&Example{ID: "ex-001"}, "x", "")
	if err == nil {
		t.Error("duplicate insert should fail")
	}
	err = s.InsertInstruction(&Instruction{ID: "ins-001"}, "x", "")
	if err == nil {
		t.Error("duplicate instruction insert should fail")
	}
}

func TestAutoAssignedIDs(t *testing.T) {
	s := NewSet()
	e := &Example{NL: "x"}
	if err := s.InsertExample(e, "p", ""); err != nil {
		t.Fatal(err)
	}
	if e.ID == "" {
		t.Error("example ID not auto-assigned")
	}
	in := &Instruction{Text: "y"}
	if err := s.InsertInstruction(in, "p", ""); err != nil {
		t.Fatal(err)
	}
	if in.ID == "" {
		t.Error("instruction ID not auto-assigned")
	}
}

func TestByIntentLookups(t *testing.T) {
	s := seedSet(t)
	if got := len(s.ExamplesByIntent("intent-001")); got != 1 {
		t.Errorf("examples by intent-001 = %d, want 1", got)
	}
	if got := len(s.ExamplesByIntent("intent-002")); got != 0 {
		t.Errorf("examples by intent-002 = %d, want 0", got)
	}
	if got := len(s.InstructionsByIntent("intent-001")); got != 1 {
		t.Errorf("instructions by intent-001 = %d, want 1", got)
	}
}

func TestDefinesTerm(t *testing.T) {
	s := seedSet(t)
	if s.DefinesTerm("qoqfp") == nil {
		t.Error("DefinesTerm should be case-insensitive")
	}
	if s.DefinesTerm("RPV") != nil {
		t.Error("RPV is exercised by an example, not defined by an instruction")
	}
}

func TestHistoryRecordsOperations(t *testing.T) {
	s := seedSet(t)
	before := len(s.History())
	up := *s.Example("ex-001")
	if err := s.UpdateExample(&up, "sme", "fb-9"); err != nil {
		t.Fatal(err)
	}
	hist := s.History()
	if len(hist) != before+1 {
		t.Fatalf("history grew by %d, want 1", len(hist)-before)
	}
	last := hist[len(hist)-1]
	if last.Op != OpUpdate || last.Kind != ExampleEntity || last.FeedbackID != "fb-9" {
		t.Errorf("history event = %+v", last)
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Seq <= hist[i-1].Seq {
			t.Error("history sequence numbers not increasing")
		}
	}
}

func TestCheckpointAndRevert(t *testing.T) {
	s := seedSet(t)
	cpID := s.Checkpoint("before-edits")
	if err := s.DeleteExample("ex-001", "sme", ""); err != nil {
		t.Fatal(err)
	}
	s.AddDirective("prefer quarterly examples", "sme", "")
	if err := s.Revert(cpID); err != nil {
		t.Fatal(err)
	}
	if s.Example("ex-001") == nil {
		t.Error("revert did not restore deleted example")
	}
	if len(s.Directives()) != 0 {
		t.Error("revert did not remove directive")
	}
	// History must still record everything including the revert.
	hist := s.History()
	last := hist[len(hist)-1]
	if last.Op != OpRevert {
		t.Errorf("last history op = %s, want revert", last.Op)
	}
	if err := s.Revert(999); err == nil {
		t.Error("revert to missing checkpoint should fail")
	}
}

func TestCloneIsolation(t *testing.T) {
	s := seedSet(t)
	c := s.CloneFull()
	if err := c.DeleteExample("ex-001", "sme", ""); err != nil {
		t.Fatal(err)
	}
	if s.Example("ex-001") == nil {
		t.Error("mutating clone affected original")
	}

	// Clones share the original's directives, history and checkpoints; an
	// append on one clone must not write into another's.
	for _, d := range []string{"a", "b", "c"} {
		s.AddDirective(d, "sme", "")
		s.Checkpoint(d)
	}
	a, b := s.CloneFull(), s.CloneFull()
	for _, c := range []struct {
		set  *Set
		name string
	}{{a, "only a"}, {b, "only b"}} {
		c.set.Checkpoint(c.name)
		c.set.AddDirective(c.name, "sme", "")
	}
	dirs, hist, cps := a.Directives(), a.History(), a.Checkpoints()
	if dirs[len(dirs)-1] != "only a" || hist[len(hist)-1].Directive != "only a" || cps[len(cps)-1].Name != "only a" {
		t.Error("one clone's append overwrote another's")
	}
}

func TestStageAppliesEditsToClone(t *testing.T) {
	s := seedSet(t)
	edits := []Edit{
		{Op: EditUpdate, Kind: InstructionEntity, Instruction: &Instruction{
			ID: "ins-001", Text: "Use conditional aggregation when comparing periods",
		}},
		{Op: EditInsert, Kind: ExampleEntity, Example: &Example{
			NL: "Filter to owned organizations", SQL: "OWNERSHIP_FLAG_COLUMN = 'COC'", Clause: "where",
		}},
		{Op: EditDirective, Directive: "rank quarter-pivot examples higher"},
	}
	staged, err := s.Stage(edits, "sme", "fb-2")
	if err != nil {
		t.Fatal(err)
	}
	if staged.Instruction("ins-001").Text == s.Instruction("ins-001").Text {
		t.Error("staged instruction update missing")
	}
	if len(staged.Examples()) != len(s.Examples())+1 {
		t.Error("staged example insert missing")
	}
	if len(staged.Directives()) != 1 {
		t.Error("staged directive missing")
	}
	if s.Version() == staged.Version() {
		t.Error("staging should bump only the clone's version")
	}
}

func TestStageInvalidEditFails(t *testing.T) {
	s := seedSet(t)
	_, err := s.Stage([]Edit{{Op: EditDelete, Kind: ExampleEntity, ID: "nope"}}, "sme", "")
	if err == nil {
		t.Error("staging a delete of a missing example should fail")
	}
	_, err = s.Stage([]Edit{{Op: EditInsert, Kind: ExampleEntity}}, "sme", "")
	if err == nil || !strings.Contains(err.Error(), "payload") {
		t.Errorf("insert without payload error = %v", err)
	}
}

func TestEditDescribe(t *testing.T) {
	e := Edit{Op: EditInsert, Kind: InstructionEntity,
		Instruction: &Instruction{ID: "ins-9", Text: "Always filter by country"}}
	if !strings.Contains(e.Describe(), "ins-9") {
		t.Errorf("Describe = %q", e.Describe())
	}
}

func TestStatsAndTermsIndex(t *testing.T) {
	s := seedSet(t)
	st := s.Stats()
	if st.Examples != 1 || st.Instructions != 1 || st.Intents != 2 {
		t.Errorf("Stats = %+v", st)
	}
	terms := s.TermsIndex()
	if len(terms) != 1 || terms[0] != "QoQFP" {
		t.Errorf("TermsIndex = %v", terms)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestLoggedStateIsNeverWritten pins the ownership rule: once logged, an
// event, a checkpoint and the entities they hold are never written, so a
// captured History() or Checkpoints() result, and the same prefix read
// later, stay byte-identical through every mutator, an update of an
// already-logged ID and a revert — on the set and on a clone of it.
func TestLoggedStateIsNeverWritten(t *testing.T) {
	s := seedSet(t)
	baseline := s.Checkpoint("baseline")
	hist, cps := s.History(), s.Checkpoints()
	histJSON, cpsJSON := mustJSON(t, hist), mustJSON(t, cps)

	clone := s.CloneFull()
	for _, set := range []*Set{s, clone} {
		mutateAll(t, set)
		up := *set.Example("ex-002")
		up.SQL = "OWNERSHIP_FLAG_COLUMN IN ('COC', 'JV')"
		if err := set.UpdateExample(&up, "sme", "fb-5"); err != nil {
			t.Fatal(err)
		}
		if err := set.Revert(baseline); err != nil {
			t.Fatal(err)
		}
	}

	if !bytes.Equal(mustJSON(t, hist), histJSON) || !bytes.Equal(mustJSON(t, cps), cpsJSON) {
		t.Error("a captured history or checkpoint list changed under later mutation")
	}
	for _, set := range []*Set{s, clone} {
		if got := mustJSON(t, set.History()[:len(hist)]); !bytes.Equal(got, histJSON) {
			t.Errorf("history prefix changed:\n got %s\nwant %s", got, histJSON)
		}
		if got := mustJSON(t, set.Checkpoints()[:len(cps)]); !bytes.Equal(got, cpsJSON) {
			t.Errorf("checkpoint prefix changed:\n got %s\nwant %s", got, cpsJSON)
		}
	}
}

// TestConcurrentReadsWhileClonesChange reads a live set from several
// goroutines while clones of it — which share its entities, history and
// checkpoints — are staged, merged, checkpointed and reverted. Run under
// -race it shows that no clone writes memory the live set reads.
func TestConcurrentReadsWhileClonesChange(t *testing.T) {
	live := seedSet(t)
	live.Checkpoint("baseline")
	mutateAll(t, live)
	want := mustJSON(t, live.State())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range live.Examples() {
					if live.Example(e.ID) != e || e.Text() == "" {
						t.Error("Examples() and Example() disagree")
						return
					}
				}
				if _, err := json.Marshal(live.State()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	edits := []Edit{
		{Op: EditUpdate, Kind: ExampleEntity, Example: &Example{ID: "ex-001", NL: "Compute revenue per view"}},
		{Op: EditInsert, Kind: ExampleEntity, Example: &Example{NL: "Rank organisations by revenue", SQL: "ORDER BY REVENUE DESC"}},
		{Op: EditDirective, Directive: "prefer ranking examples"},
	}
	for i := 0; i < 50; i++ {
		if _, err := live.Stage(edits, "sme", "fb-stage"); err != nil {
			t.Fatal(err)
		}
		merged := live.CloneFull()
		cp := merged.Checkpoint("before-merge")
		for _, e := range edits {
			if err := merged.Apply(e, "reviewer", "fb-merge"); err != nil {
				t.Fatal(err)
			}
		}
		next := merged.CloneFull()
		if err := next.DeleteExample("ex-002", "sme", "fb-delete"); err != nil {
			t.Fatal(err)
		}
		if err := next.Revert(cp); err != nil {
			t.Fatal(err)
		}
		if err := merged.Revert(cp); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := mustJSON(t, live.State()); !bytes.Equal(got, want) {
		t.Error("the live set changed while its clones were edited")
	}
}
