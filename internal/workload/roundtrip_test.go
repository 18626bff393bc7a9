package workload

import (
	"reflect"
	"testing"

	"genedit/internal/decompose"
	"genedit/internal/eval"
	"genedit/internal/sqlparse"
)

// TestGoldPrintParseRoundTrip: every gold query survives print∘parse with an
// identical AST — the printer property over the whole realistic workload.
func TestGoldPrintParseRoundTrip(t *testing.T) {
	s := NewSuite(1)
	for _, c := range s.Cases {
		stmt, err := sqlparse.Parse(c.GoldSQL)
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		again, err := sqlparse.Parse(sqlparse.Print(stmt))
		if err != nil {
			t.Fatalf("%s: re-parse: %v", c.ID, err)
		}
		if !reflect.DeepEqual(stmt, again) {
			t.Errorf("%s: print∘parse changed the AST", c.ID)
		}
	}
}

// TestGoldComposeDecomposeEXEquivalent: the §3.2 property the whole system
// rests on — re-composing a query from its decomposed fragments yields an
// execution-equivalent query — holds for every gold query in the benchmark.
func TestGoldComposeDecomposeEXEquivalent(t *testing.T) {
	s := NewSuite(1)
	for _, c := range s.Cases {
		frags, err := decompose.DecomposeSQL(c.GoldSQL)
		if err != nil {
			t.Fatalf("%s: decompose: %v", c.ID, err)
		}
		composed, err := decompose.ComposeSQL(frags)
		if err != nil {
			t.Fatalf("%s: compose: %v", c.ID, err)
		}
		exec, err := s.Executor(c.DB)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.Query(c.GoldSQL)
		if err != nil {
			t.Fatalf("%s: gold: %v", c.ID, err)
		}
		got, err := exec.Query(composed)
		if err != nil {
			t.Fatalf("%s: composed query failed: %v\n%s", c.ID, err, composed)
		}
		if !eval.ResultsEqual(want, got) {
			t.Errorf("%s: compose∘decompose changed the result", c.ID)
		}
	}
}

// TestLogQueriesDecomposeAndExecute: the pre-processing inputs (query logs)
// are themselves executable and decomposable for every domain.
func TestLogQueriesDecomposeAndExecute(t *testing.T) {
	s := NewSuite(1)
	for db, in := range s.KB {
		exec, err := s.Executor(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, entry := range in.Logs {
			if _, err := exec.Query(entry.SQL); err != nil {
				t.Errorf("%s: log %s does not execute: %v", db, entry.ID, err)
			}
			if _, err := decompose.DecomposeSQL(entry.SQL); err != nil {
				t.Errorf("%s: log %s does not decompose: %v", db, entry.ID, err)
			}
		}
	}
}
