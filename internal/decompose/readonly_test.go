package decompose_test

import (
	"reflect"
	"testing"

	"genedit/internal/decompose"
	"genedit/internal/sqlparse"
	"genedit/internal/workload"
)

// decomposeViaCopy is Decompose as it was while it deep-copied its input:
// print the statement, parse the text, decompose the copy.
func decomposeViaCopy(t *testing.T, stmt *sqlparse.SelectStmt) []decompose.Fragment {
	t.Helper()
	copied, err := sqlparse.Parse(sqlparse.Print(stmt))
	if err != nil {
		t.Fatalf("re-parse of %q: %v", sqlparse.Print(stmt), err)
	}
	frags, err := decompose.Decompose(copied)
	if err != nil {
		t.Fatal(err)
	}
	return frags
}

// suiteStatements is every statement the standard suite decomposes: the
// gold SQL of each case and the source query of each knowledge example.
func suiteStatements(t *testing.T) []string {
	t.Helper()
	suite := workload.NewSuite(1)
	seen := make(map[string]bool)
	var out []string
	add := func(sql string) {
		if sql != "" && !seen[sql] {
			seen[sql] = true
			out = append(out, sql)
		}
	}
	for _, c := range suite.Cases {
		add(c.GoldSQL)
	}
	for db := range suite.Databases {
		kset, err := suite.BuildKnowledge(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range kset.Examples() {
			add(ex.SourceSQL)
		}
	}
	return out
}

// TestDecomposeReadsOnly pins what lets Decompose skip the copy: it leaves
// its argument as it found it, yields the fragments the copying path
// yielded, and printing is a fixed point of parse-then-print (so the copy
// was never a different statement).
func TestDecomposeReadsOnly(t *testing.T) {
	stmts := suiteStatements(t)
	if len(stmts) < 100 {
		t.Fatalf("only %d distinct statements in the suite", len(stmts))
	}
	for _, sql := range stmts {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		before := sqlparse.Print(stmt)

		reparsed, err := sqlparse.Parse(before)
		if err != nil {
			t.Fatalf("printed form of %q does not parse: %v", sql, err)
		}
		if again := sqlparse.Print(reparsed); again != before {
			t.Errorf("Print is not a fixed point:\n first  %s\n second %s", before, again)
		}

		frags, err := decompose.Decompose(stmt)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if after := sqlparse.Print(stmt); after != before {
			t.Errorf("Decompose changed its argument:\n before %s\n after  %s", before, after)
		}
		if want := decomposeViaCopy(t, stmt); !reflect.DeepEqual(frags, want) {
			t.Errorf("%q: fragments differ from the copying path:\n got  %+v\n want %+v", sql, frags, want)
		}
	}
}
