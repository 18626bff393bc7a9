package miner

import (
	"reflect"
	"testing"

	"genedit/internal/pipeline"
)

func failedRec(question, sql, kind string) *pipeline.Record {
	return &pipeline.Record{
		Question: question,
		FinalSQL: sql,
		Attempts: []pipeline.Attempt{{SQL: sql, Kind: kind, Err: kind + " error"}},
	}
}

func TestClusterFailuresGroupsByShape(t *testing.T) {
	shapeA1 := "SELECT ORG_NAME, SUM(REVENUE) AS T FROM SPORTS_FINANCIALS WHERE COUNTRY = 'Canada' GROUP BY ORG_NAME ORDER BY ORG_NAME"
	shapeA2 := "SELECT ORG_NAME, SUM(REVENUE) AS T FROM SPORTS_FINANCIALS WHERE COUNTRY = 'USA' GROUP BY ORG_NAME ORDER BY ORG_NAME"
	shapeB := "SELECT COUNT(*) FROM SPORTS_VIEWERSHIP"

	clusters := ClusterFailures([]*pipeline.Record{
		failedRec("q1", shapeA1, "exec"),
		failedRec("q2", shapeA2, "exec"),
		failedRec("q3", shapeB, "exec"),
		failedRec("q1", shapeA1, "exec"), // duplicate question: one representative kept
		nil,
		{Question: "ok", FinalSQL: shapeB, OK: true}, // successes are skipped
	})
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters, want 2", len(clusters))
	}
	// Largest first.
	if got := clusters[0].Questions; !reflect.DeepEqual(got, []string{"q1", "q2"}) {
		t.Errorf("cluster 0 questions = %v", got)
	}
	if len(clusters[0].Records) != 2 {
		t.Errorf("duplicate question not deduped: %d records", len(clusters[0].Records))
	}
	if clusters[0].Kind != "exec" {
		t.Errorf("kind = %q", clusters[0].Kind)
	}
	if clusters[0].Key == clusters[1].Key {
		t.Error("different statement shapes share a cluster key")
	}
}

func TestClusterFailuresSeparatesKinds(t *testing.T) {
	sql := "SELECT ORG_NAME FROM SPORTS_FINANCIALS"
	clusters := ClusterFailures([]*pipeline.Record{
		failedRec("q1", sql, "exec"),
		failedRec("q2", sql, "syntax"),
	})
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters, want exec and syntax apart", len(clusters))
	}
}

func TestClusterFailuresUnparsable(t *testing.T) {
	clusters := ClusterFailures([]*pipeline.Record{
		failedRec("q1", "SELEC banana FORM", "syntax"),
		failedRec("q2", "???", "syntax"),
	})
	if len(clusters) != 1 {
		t.Fatalf("got %d clusters, want unparsable SQL pooled by kind", len(clusters))
	}
	if len(clusters[0].Records) != 2 {
		t.Fatalf("got %d records", len(clusters[0].Records))
	}
}

func TestAcronymTerms(t *testing.T) {
	got := acronymTerms("What is the NBR and QoQFP for our orgs in USA? (see NBR)")
	want := []string{"NBR", "QoQFP", "USA"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("acronymTerms = %v, want %v", got, want)
	}
	if terms := acronymTerms("no jargon here at all"); len(terms) != 0 {
		t.Errorf("extracted terms from plain text: %v", terms)
	}
}

func TestCandidateIDDeterministic(t *testing.T) {
	cl := &Cluster{Key: "exec|/projection,/from|T"}
	edits := []struct{ q string }{{"q1"}, {"q2"}}
	_ = edits
	e1 := instructionEdit("q1", []string{"NBR"}, cl, 0)
	e2 := instructionEdit("q1", []string{"NBR"}, cl, 0)
	if e1.Instruction.ID != e2.Instruction.ID {
		t.Error("same question yields different instruction IDs")
	}
	if e3 := instructionEdit("q1", []string{"NBR"}, cl, 1); e3.Instruction.ID == e1.Instruction.ID {
		t.Error("refinement round shares the initial instruction ID")
	}
}
