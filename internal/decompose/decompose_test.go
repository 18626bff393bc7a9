package decompose

import (
	"strings"
	"testing"

	"genedit/internal/sqlparse"
)

const complexQuery = `
WITH
FIN AS (
  SELECT ORG, SUM(CASE WHEN Q = '1' THEN REV ELSE 0 END) AS R1
  FROM FINANCIALS
  WHERE COUNTRY = 'Canada'
  GROUP BY ORG
),
RANKED AS (
  SELECT ORG, R1, ROW_NUMBER() OVER (ORDER BY R1 DESC) AS RNK
  FROM FIN
)
SELECT ORG, RNK FROM RANKED WHERE RNK <= 5 ORDER BY RNK LIMIT 5`

func TestDecomposeUnitsAndClauses(t *testing.T) {
	frags, err := DecomposeSQL(complexQuery)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]Fragment)
	for _, f := range frags {
		byKey[f.Key()] = f
	}
	wantKeys := []string{
		"FIN/projection", "FIN/from", "FIN/where", "FIN/group_by",
		"RANKED/projection", "RANKED/from",
		"/projection", "/from", "/where", "/order_by", "/limit",
	}
	for _, k := range wantKeys {
		if _, ok := byKey[k]; !ok {
			t.Errorf("missing fragment %s; have %v", k, keysOf(frags))
		}
	}
	if got := byKey["FIN/where"].SQL; !strings.Contains(got, "'Canada'") {
		t.Errorf("FIN/where SQL = %q, want the Canada filter", got)
	}
}

func keysOf(frags []Fragment) []string {
	out := make([]string, len(frags))
	for i, f := range frags {
		out[i] = f.Key()
	}
	return out
}

func TestPseudoForm(t *testing.T) {
	frags, err := DecomposeSQL("SELECT A FROM SPORTS_FINANCIALS WHERE B = 1")
	if err != nil {
		t.Fatal(err)
	}
	var fromPseudo string
	for _, f := range frags {
		if f.Clause == ClauseFrom {
			fromPseudo = f.Pseudo()
		}
	}
	if fromPseudo != "... FROM SPORTS_FINANCIALS ..." {
		t.Errorf("pseudo = %q, want the paper's dotted form", fromPseudo)
	}
}

func TestComposeDecomposeRoundTrip(t *testing.T) {
	sources := []string{
		"SELECT 1",
		"SELECT A, B FROM T WHERE A > 1 GROUP BY A, B HAVING COUNT(*) > 1 ORDER BY A DESC LIMIT 3 OFFSET 1",
		"SELECT DISTINCT A FROM T",
		complexQuery,
		"WITH X AS (SELECT 1 AS V) SELECT V FROM X",
	}
	for _, src := range sources {
		frags, err := DecomposeSQL(src)
		if err != nil {
			t.Errorf("decompose %q: %v", src, err)
			continue
		}
		sql, err := ComposeSQL(frags)
		if err != nil {
			t.Errorf("compose %q: %v", src, err)
			continue
		}
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Errorf("composed SQL of %q does not parse: %v", src, err)
			continue
		}
		orig, err := sqlparse.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if sqlparse.Print(stmt) != sqlparse.Print(orig) {
			t.Errorf("round trip changed query:\n in: %s\nout: %s",
				sqlparse.Print(orig), sqlparse.Print(stmt))
		}
	}
}

func TestDecomposeCompoundFallsBackToWhole(t *testing.T) {
	frags, err := DecomposeSQL("SELECT A FROM T UNION SELECT A FROM U")
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 || frags[0].Clause != ClauseWhole {
		t.Fatalf("compound select should decompose to one whole fragment, got %v", keysOf(frags))
	}
	sql, err := ComposeSQL(frags)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Compound) != 1 {
		t.Error("whole fragment lost the compound arm")
	}
}

// Query-log SQL is decomposed as written: a FROM-clause subquery is not
// hoisted into a CTE unit, it stays inside its FROM fragment.
func TestFromSubqueryStaysInFromFragment(t *testing.T) {
	src := "SELECT s.D, s.N FROM (SELECT DEPT AS D, COUNT(*) AS N FROM EMP GROUP BY DEPT) AS s WHERE s.N > 1"
	frags, err := DecomposeSQL(src)
	if err != nil {
		t.Fatal(err)
	}
	from := ""
	for _, f := range frags {
		if f.Unit != "" {
			t.Errorf("fragment %s: want only final-select units, the subquery is not a CTE", f.Key())
		}
		if f.Clause == ClauseFrom {
			from = f.SQL
		}
	}
	if !strings.Contains(from, "GROUP BY DEPT") {
		t.Errorf("FROM fragment %q lost its subquery", from)
	}
}

func TestComposeErrors(t *testing.T) {
	tests := []struct {
		name  string
		frags []Fragment
		want  string
	}{
		{
			name:  "empty",
			frags: nil,
			want:  "no final select",
		},
		{
			name: "missing projection",
			frags: []Fragment{
				{Unit: "", Clause: ClauseWhere, SQL: "A = 1"},
			},
			want: "no projection",
		},
		{
			name: "duplicate clause",
			frags: []Fragment{
				{Unit: "", Clause: ClauseProjection, SQL: "A"},
				{Unit: "", Clause: ClauseProjection, SQL: "B"},
			},
			want: "duplicate",
		},
		{
			name: "whole mixed with clause",
			frags: []Fragment{
				{Unit: "X", Clause: ClauseWhole, SQL: "SELECT 1"},
				{Unit: "X", Clause: ClauseWhere, SQL: "A = 1"},
				{Unit: "", Clause: ClauseProjection, SQL: "A"},
			},
			want: "mixes whole and clause",
		},
	}
	for _, tt := range tests {
		_, err := ComposeSQL(tt.frags)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: error = %v, want containing %q", tt.name, err, tt.want)
		}
	}
}

func TestFragmentNLIsDescriptive(t *testing.T) {
	frags, err := DecomposeSQL(complexQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frags {
		if f.NL == "" {
			t.Errorf("fragment %s has no natural-language description", f.Key())
		}
	}
	for _, f := range frags {
		if f.Unit == "FIN" && f.Clause == ClauseFrom {
			if !strings.Contains(f.NL, "FINANCIALS") {
				t.Errorf("FROM description %q should mention the table", f.NL)
			}
		}
	}
}
