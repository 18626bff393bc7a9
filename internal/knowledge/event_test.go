package knowledge

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// mutateAll drives every mutator so replay/serialization tests cover the
// full op × kind surface, including checkpoint and revert.
func mutateAll(t *testing.T, s *Set) {
	t.Helper()
	up := *s.Example("ex-001")
	up.NL = "Compute revenue per viewer"
	if err := s.UpdateExample(&up, "sme", "fb-1"); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertExample(&Example{
		NL: "Filter to owned organizations", SQL: "OWNERSHIP_FLAG_COLUMN = 'COC'", Clause: "where",
	}, "sme", "fb-1"); err != nil {
		t.Fatal(err)
	}
	cp := s.Checkpoint("mid")
	ins := *s.Instruction("ins-001")
	ins.Text = "Use conditional aggregation when comparing periods"
	if err := s.UpdateInstruction(&ins, "sme", "fb-2"); err != nil {
		t.Fatal(err)
	}
	s.AddDirective("rank quarter-pivot examples higher", "sme", "fb-2")
	if err := s.InsertInstruction(&Instruction{Text: "Always filter by fiscal year", Terms: []string{"FY"}}, "sme", "fb-2"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteExample("ex-001", "sme", "fb-3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Revert(cp); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteInstruction("ins-001", "sme", "fb-4"); err != nil {
		t.Fatal(err)
	}
}

// TestReplayReproducesSet asserts that replaying a set's history onto a
// fresh set reproduces contents, version, and history event-for-event.
func TestReplayReproducesSet(t *testing.T) {
	s := seedSet(t)
	mutateAll(t, s)

	r := NewSet()
	if err := r.Replay(s.History()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.State(), s.State()) {
		t.Errorf("replayed state differs from original:\n got %+v\nwant %+v", r.State(), s.State())
	}
	if r.Version() != s.Version() || r.LastSeq() != s.LastSeq() {
		t.Errorf("version/seq = %d/%d, want %d/%d", r.Version(), r.LastSeq(), s.Version(), s.LastSeq())
	}
	gh, wh := r.History(), s.History()
	if len(gh) != len(wh) {
		t.Fatalf("history length %d != %d", len(gh), len(wh))
	}
	for i := range gh {
		if !reflect.DeepEqual(gh[i], wh[i]) {
			t.Errorf("history[%d] = %+v, want %+v", i, gh[i], wh[i])
		}
	}
}

// TestReplaySurvivesJSONRoundTrip mirrors the WAL path: events are
// marshaled to JSON lines and back before replay.
func TestReplaySurvivesJSONRoundTrip(t *testing.T) {
	s := seedSet(t)
	mutateAll(t, s)

	r := NewSet()
	for _, ev := range s.History() {
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		var back ChangeEvent
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if err := r.ApplyEvent(back); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(r.State(), s.State()) {
		t.Error("JSON round-tripped replay diverged from original")
	}
}

func TestReplayDetectsGaps(t *testing.T) {
	s := seedSet(t)
	hist := s.History()
	r := NewSet()
	if err := r.ApplyEvent(hist[1]); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Errorf("out-of-order replay error = %v, want gap", err)
	}
	if err := r.ApplyEvent(hist[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyEvent(hist[0]); err == nil {
		t.Error("duplicate replay should fail")
	}
}

func TestReplayInconsistentEventFails(t *testing.T) {
	r := NewSet()
	err := r.ApplyEvent(ChangeEvent{Seq: 1, Version: 1, Op: OpDelete, Kind: ExampleEntity, EntityID: "nope"})
	if err == nil {
		t.Error("deleting a missing example during replay should fail")
	}
	err = r.ApplyEvent(ChangeEvent{Seq: 1, Version: 1, Op: OpInsert, Kind: ExampleEntity})
	if err == nil || !strings.Contains(err.Error(), "payload") {
		t.Errorf("insert without payload error = %v", err)
	}
}

// TestStateRoundTrip asserts FromState(State()) reproduces the set,
// through JSON as the snapshot files do, and that checkpoints survive (a
// revert still works after the round trip).
func TestStateRoundTrip(t *testing.T) {
	s := seedSet(t)
	cp := s.Checkpoint("baseline")
	mutateAll(t, s)

	raw, err := json.Marshal(s.State())
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	r := FromState(&st)
	if !reflect.DeepEqual(r.State(), s.State()) {
		t.Error("state round trip diverged")
	}
	if err := r.Revert(cp); err != nil {
		t.Fatalf("revert after round trip: %v", err)
	}
	if r.Example("ex-001") == nil {
		t.Error("revert after round trip did not restore checkpointed content")
	}
	// The round-tripped set must stay isolated from the original.
	r.AddDirective("isolated", "t", "")
	if len(s.Directives()) != 0 {
		t.Error("round-tripped set aliases the original")
	}
}

// TestBuildHistoryIsReplayable asserts the seed-build path (the builder's
// intents, instructions and decomposed examples) produces a fully
// replayable event history — the property kstore's seeding relies on.
func TestBuildHistoryIsReplayable(t *testing.T) {
	set := buildFixture(t)
	r := NewSet()
	if err := r.Replay(set.History()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.State(), set.State()) {
		t.Error("replayed seed build diverged (intent elements must be logged at insert time)")
	}
	for _, it := range set.Intents() {
		if len(it.Elements) > 0 {
			return // at least one intent carries mined schema elements
		}
	}
	t.Error("expected some intent to carry mined schema elements")
}

func TestHistorySince(t *testing.T) {
	s := seedSet(t)
	mid := s.LastSeq()
	s.AddDirective("tail event", "sme", "")
	tail := s.HistorySince(mid)
	if len(tail) != 1 || tail[0].Directive != "tail event" {
		t.Fatalf("HistorySince(%d) = %+v, want 1 directive event", mid, tail)
	}
	if got := s.HistorySince(0); len(got) != len(s.History()) {
		t.Errorf("HistorySince(0) = %d events, want %d", len(got), len(s.History()))
	}
	if got := s.HistorySince(s.LastSeq()); got != nil {
		t.Errorf("HistorySince(last) = %+v, want nil", got)
	}
}

func TestCloneFull(t *testing.T) {
	s := seedSet(t)
	cp := s.Checkpoint("baseline")
	mutateAll(t, s)

	c := s.CloneFull()
	if !reflect.DeepEqual(c.State(), s.State()) {
		t.Fatal("CloneFull state differs from original")
	}
	// Mutating the clone (including its checkpoints via revert) must not
	// touch the original.
	if err := c.Revert(cp); err != nil {
		t.Fatal(err)
	}
	c.AddDirective("clone-only", "t", "")
	if len(s.History()) == len(c.History()) {
		t.Error("clone history should have diverged")
	}
	if reflect.DeepEqual(c.State(), s.State()) {
		t.Error("mutating clone affected original")
	}
}

// TestCheckpointBoundIsReplayed: the MaxCheckpoints revert window is an
// invariant of the mutators, so a replayed set holds the same window as
// the original and Revert to a pruned checkpoint fails on both.
func TestCheckpointBoundIsReplayed(t *testing.T) {
	s := seedSet(t)
	var first int
	for i := 0; i <= MaxCheckpoints; i++ {
		id := s.Checkpoint(fmt.Sprintf("cp-%d", i))
		if i == 0 {
			first = id
		}
	}
	if got := len(s.Checkpoints()); got != MaxCheckpoints {
		t.Fatalf("checkpoints = %d, want bound %d", got, MaxCheckpoints)
	}
	if err := s.Revert(first); err == nil {
		t.Error("revert to a pruned checkpoint should fail")
	}
	// IDs stay monotonic across pruning — never recycled from list length.
	nextID := s.Checkpoint("one-more")
	if nextID != MaxCheckpoints+2 {
		t.Errorf("checkpoint ID after pruning = %d, want %d", nextID, MaxCheckpoints+2)
	}
	seen := make(map[int]bool)
	for _, cp := range s.Checkpoints() {
		if seen[cp.ID] {
			t.Fatalf("duplicate checkpoint ID %d after pruning", cp.ID)
		}
		seen[cp.ID] = true
	}
	r := NewSet()
	if err := r.Replay(s.History()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.State(), s.State()) {
		t.Error("replayed set's checkpoint window diverged from original")
	}
	if err := r.Revert(first); err == nil {
		t.Error("replayed set must also have pruned the first checkpoint")
	}
}
