package kstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"genedit/internal/knowledge"
	"genedit/internal/schema"
)

// The store under testdata/compat was written by the store code of the
// commit before the knowledge set came to share its entities (and to hold
// its content in one Content type), from compatPhaseOne and compatPhaseTwo
// below:
//
//   - store/ is compatPhaseOne's set, committed and compacted (the
//     snapshot, which holds a checkpoint), then compatPhaseTwo's edits
//     committed (the WAL tail, with a second checkpoint and a revert);
//   - compacted.json is the snapshot that code wrote when it opened a copy
//     of store/ and compacted the recovered set.
//
// Files in those directories are on-disk formats other builds read: they
// must never be regenerated with the current code.

// compatPhaseOne builds the content the committed snapshot holds.
func compatPhaseOne(t *testing.T) *knowledge.Set {
	t.Helper()
	s := knowledge.NewSet()
	s.AddIntent(&knowledge.Intent{
		ID: "intent-001", Name: "financial performance", Description: "Queries about revenue.",
		Elements: []schema.Element{{Table: "SPORTS_FINANCIALS", Column: "REVENUE"}, {Table: "SPORTS_FINANCIALS", Column: "VIEWS"}},
	})
	if err := s.InsertExample(&knowledge.Example{
		ID: "ex-001", IntentIDs: []string{"intent-001"},
		NL: "Compute RPV as revenue over views", Pseudo: "... REVENUE / NULLIF(VIEWS, 0) ...",
		SQL: "REVENUE / NULLIF(VIEWS, 0)", Clause: "projection",
		SourceSQL:      "SELECT ORG, REVENUE / NULLIF(VIEWS, 0) FROM SPORTS_FINANCIALS",
		SourceQuestion: "What is the RPV of each organisation?",
		Terms:          []string{"RPV"}, Provenance: knowledge.Provenance{Source: "log:q-001"},
	}, "preprocessing", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertInstruction(&knowledge.Instruction{
		ID: "ins-001", IntentIDs: []string{"intent-001"},
		Text: "Apply a -1 multiplier for QoQFP", SQLHint: "-1 * (CUR - PREV)",
		Terms: []string{"QoQFP"}, Provenance: knowledge.Provenance{Source: "doc:glossary"},
	}, "preprocessing", ""); err != nil {
		t.Fatal(err)
	}
	s.Checkpoint("before-fb-001")
	up := *s.Example("ex-001")
	up.NL = "Compute revenue per viewer"
	if err := s.UpdateExample(&up, "sme", "fb-001"); err != nil {
		t.Fatal(err)
	}
	s.AddDirective("rank quarter-pivot examples higher", "sme", "fb-001")
	return s
}

// compatPhaseTwo applies the edits the committed WAL tail holds.
func compatPhaseTwo(t *testing.T, s *knowledge.Set) {
	t.Helper()
	if err := s.InsertInstruction(&knowledge.Instruction{
		ID: "ins-002", Text: "Always filter by fiscal year", Terms: []string{"FY"},
	}, "sme", "fb-002"); err != nil {
		t.Fatal(err)
	}
	cp := s.Checkpoint("before-fb-003")
	if err := s.DeleteExample("ex-001", "sme", "fb-003"); err != nil {
		t.Fatal(err)
	}
	ins := *s.Instruction("ins-001")
	ins.Text = "Use conditional aggregation when comparing periods"
	if err := s.UpdateInstruction(&ins, "sme", "fb-003"); err != nil {
		t.Fatal(err)
	}
	if err := s.Revert(cp); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertExample(&knowledge.Example{
		ID: "ex-002", NL: "Filter to owned organizations", SQL: "OWNERSHIP_FLAG_COLUMN = 'COC'", Clause: "where",
	}, "sme", "fb-004"); err != nil {
		t.Fatal(err)
	}
	s.AddDirective("prefer examples from the same fiscal year", "sme", "fb-004")
}

// TestOpenRecoversStoreFromEarlierFormat: the committed store recovers to
// the set an in-memory replay of the same edits builds, its snapshot
// decodes and re-encodes to the same bytes, and compacting the recovered
// set writes the bytes the earlier code wrote.
func TestOpenRecoversStoreFromEarlierFormat(t *testing.T) {
	const root = "testdata/compat"
	want := compatPhaseOne(t)
	compatPhaseTwo(t, want)

	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	var snapshot []byte
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(root, "store", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Ext(e.Name()) == ".json" {
			snapshot = raw
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if snapshot == nil {
		t.Fatal("the committed store has no snapshot")
	}

	st := mustOpen(t, dir)
	got := st.Recovered()
	if st.SnapshotVersion() == 0 || st.SnapshotVersion() == got.Version() {
		t.Fatalf("snapshot version %d of set version %d: the store must hold a snapshot and a WAL tail",
			st.SnapshotVersion(), got.Version())
	}
	assertSame(t, got, want, "store written by the earlier format")

	var decoded knowledge.State
	if err := json.Unmarshal(snapshot, &decoded); err != nil {
		t.Fatal(err)
	}
	var reencoded bytes.Buffer
	if err := json.NewEncoder(&reencoded).Encode(knowledge.FromState(&decoded).State()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reencoded.Bytes(), snapshot) {
		t.Errorf("snapshot re-encodes differently:\n got %s\nwant %s", reencoded.Bytes(), snapshot)
	}

	if err := st.Compact(got); err != nil {
		t.Fatal(err)
	}
	compacted, err := os.ReadFile(st.snapshotPath(got.Version()))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(root, "compacted.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compacted, golden) {
		t.Errorf("compaction of the recovered set wrote different bytes:\n got %s\nwant %s", compacted, golden)
	}

	// Both checkpoints survived: the one the snapshot carries and the one
	// the WAL replay recreated.
	cps := got.Checkpoints()
	if len(cps) != 2 {
		t.Fatalf("checkpoints = %d, want 2", len(cps))
	}
	if err := got.Revert(cps[0].ID); err != nil {
		t.Fatal(err)
	}
	if got.Example("ex-001").NL != "Compute RPV as revenue over views" || got.Example("ex-002") != nil {
		t.Error("revert to the snapshot's checkpoint did not restore its content")
	}
}
