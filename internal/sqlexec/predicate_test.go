package sqlexec

import (
	"math"
	"strings"
	"testing"

	"genedit/internal/sqldb"
	"genedit/internal/sqlparse"
)

// kernelDB is a table whose V column mixes every value kind the column
// kernels specialize or hand back to sqldb.Compare, and whose D column
// holds canonical, non-canonical, invalid, non-string and NULL dates.
func kernelDB() *sqldb.Database {
	db := sqldb.NewDatabase("kernels")
	t := sqldb.NewTable("T", sqldb.Column{Name: "ID"}, sqldb.Column{Name: "V"},
		sqldb.Column{Name: "S"}, sqldb.Column{Name: "D"})
	rows := []struct {
		v sqldb.Value
		s sqldb.Value
		d sqldb.Value
	}{
		{sqldb.Int(2023), sqldb.Str("x"), sqldb.Str("2023-05-17")},
		{sqldb.Float(2023.0), sqldb.Str("10"), sqldb.Str("2023-05-17 10:30:00")},
		{sqldb.Float(2023.5), sqldb.Str("y"), sqldb.Str(" 2024-11-02")},
		{sqldb.Str("2023"), sqldb.Str("x"), sqldb.Str("2024-2-9")},
		{sqldb.Str("abc"), sqldb.Int(10), sqldb.Str("2022-12")},
		{sqldb.Str(" 2023"), sqldb.Null(), sqldb.Null()},
		{sqldb.Bool(true), sqldb.Str("9"), sqldb.Str("2023-13-01")},
		{sqldb.Null(), sqldb.Str("x"), sqldb.Str("not a date")},
		{sqldb.Float(math.NaN()), sqldb.Str("z"), sqldb.Int(20230517)},
		{sqldb.Float(math.Copysign(0, -1)), sqldb.Str(""), sqldb.Str("2021-01-31")},
		{sqldb.Int(0), sqldb.Str("x"), sqldb.Str("2021-07-04")},
	}
	for i, r := range rows {
		t.MustAppend(sqldb.Int(int64(i+1)), r.v, r.s, r.d)
	}
	db.AddTable(t)
	return db
}

// TestPredicateKernelParity runs each typed predicate leaf, and the near
// misses it must hand to the generic comparison, on both engines: rows,
// NULL verdicts in a value context and error text must agree.
func TestPredicateKernelParity(t *testing.T) {
	db := kernelDB()
	for _, sql := range []string{
		// A column against a number or string literal, either side, over
		// every kind: Int, Float, NaN, -0, numeric-looking strings, Bool.
		"SELECT ID FROM T WHERE V = 2023",
		"SELECT ID FROM T WHERE V = 2023.0",
		"SELECT ID FROM T WHERE V > 2023",
		"SELECT ID FROM T WHERE V <> 2023",
		"SELECT ID FROM T WHERE V <= 0",
		"SELECT ID FROM T WHERE V >= -1",
		"SELECT ID FROM T WHERE V = 1 + 2022",
		"SELECT ID FROM T WHERE 2023 = V",
		"SELECT ID FROM T WHERE 2023 < V",
		"SELECT ID FROM T WHERE V = '2023'",
		"SELECT ID FROM T WHERE V > 'a'",
		"SELECT ID FROM T WHERE 'abc' >= V",
		"SELECT ID FROM T WHERE V = NULL",
		"SELECT ID FROM T WHERE V = TRUE",
		"SELECT ID FROM T WHERE S = 'x'",
		"SELECT ID FROM T WHERE S < 'y'",
		"SELECT ID FROM T WHERE S > 9",
		"SELECT ID FROM T WHERE S = 10",
		// The value context reads the same predicates back as values.
		"SELECT ID, V = 2023, V > 'a', 2023 <> V, S = 10 FROM T",
		// YEAR/MONTH/QUARTER/DAY against a number: canonical, padded and
		// short dates, an invalid one, a non-string and NULL.
		"SELECT ID FROM T WHERE ID <= 6 AND YEAR(D) = 2023",
		"SELECT ID FROM T WHERE ID <= 6 AND MONTH(D) >= 5",
		"SELECT ID FROM T WHERE ID <= 6 AND QUARTER(D) = 4",
		"SELECT ID FROM T WHERE ID <= 6 AND DAY(D) < 10.5",
		"SELECT ID FROM T WHERE ID <= 6 AND YEAR(D) = 2023.0",
		"SELECT ID FROM T WHERE ID <= 6 AND YEAR(D) = '2023'",
		"SELECT ID, YEAR(D) > 2022 FROM T WHERE ID <= 6",
		"SELECT ID FROM T WHERE YEAR(D) = 2023",
		"SELECT ID FROM T WHERE ID = 9 AND YEAR(D) = 2023",
		"SELECT ID FROM T WHERE YEAR(D, D) = 2023",
		"SELECT ID FROM T WHERE YEAR(NULL) = 2023",
		// NOT over NULL stays NULL: kept by neither the filter nor its
		// negation.
		"SELECT ID, NOT (V = 2023) FROM T",
		"SELECT ID FROM T WHERE NOT (V = 2023)",
		"SELECT ID FROM T WHERE NOT NOT (V > 0)",
		// AND/OR whose right side would error once the left has decided,
		// and does error where it has not (FALSE/TRUE vs NULL).
		"SELECT ID FROM T WHERE ID < 0 AND YEAR(D) = 2023",
		"SELECT ID FROM T WHERE ID > 0 OR YEAR(D) = 2023",
		"SELECT ID FROM T WHERE ID = 7 OR YEAR(D) = 2023",
		"SELECT ID FROM T WHERE ID <> 7 AND ID <> 8 AND ID <> 9 AND YEAR(D) >= 2021",
		"SELECT ID FROM T WHERE (V = 2023 OR S = 'x') AND (ID < 4 OR ID > 9)",
		"SELECT ID, V = 2023 AND S = 'x', V = 2023 OR S = 'y' FROM T",
		"SELECT ID FROM T WHERE V IS NULL AND YEAR(D) = 2023",
		// IN lists, constant and not, and CASE WHEN, HAVING and ON.
		"SELECT ID FROM T WHERE V IN (2023, 'abc', NULL)",
		"SELECT ID, V NOT IN (0, 'x') FROM T",
		"SELECT ID FROM T WHERE S IN (V, 'x')",
		"SELECT ID, CASE WHEN V = 2023 THEN 'y' WHEN V IS NULL THEN 'n' ELSE 'o' END FROM T",
		"SELECT ID, CASE WHEN ID > 8 THEN 0 WHEN YEAR(D) = 2023 THEN 1 END FROM T WHERE ID <> 7",
		"SELECT S, COUNT(*) FROM T GROUP BY S HAVING COUNT(*) > 1 AND S <> 'y'",
		"SELECT a.ID, b.ID FROM T a JOIN T b ON a.ID = b.ID AND a.V = 2023",
		"SELECT a.ID, b.ID FROM T a LEFT JOIN T b ON a.S = b.S AND b.V > 'a'",
		// Single-column hash-join keys: strings, numbers across Int and
		// Float (0 and -0 included), and a mixed column, which takes the
		// nested loop.
		"SELECT a.ID, b.ID FROM T a JOIN T b ON UPPER(a.S) = UPPER(b.S)",
		"SELECT a.ID, b.ID FROM T a JOIN T b ON a.ID = b.ID * 1.0",
		"SELECT a.ID, b.ID FROM T a JOIN T b ON a.ID - 11 = b.ID * -0.0",
		"SELECT a.ID, b.ID FROM T a RIGHT JOIN T b ON a.ID + 0.5 = b.ID / 2.0",
		"SELECT a.ID, b.ID FROM T a JOIN T b ON a.S = b.S",
		"SELECT a.ID, b.ID FROM T a JOIN T b ON a.V = b.V",
	} {
		runBothExec(t, db, sql)
		if strings.Contains(sql, "JOIN") {
			runBoth(t, db, sql) // the hash join against the nested loop
		}
	}
}

// TestUncorrelatedSubqueryRunsOnce checks that a subquery reading no
// enclosing row agrees with the oracle, which runs it per row, wherever it
// appears; that a core with no rows never raises its error; and that one
// nested in a correlated subquery runs again for each enclosing row.
func TestUncorrelatedSubqueryRunsOnce(t *testing.T) {
	db := compiledTestDB()
	for _, sql := range []string{
		"SELECT NAME FROM EMP WHERE SALARY > (SELECT AVG(SALARY) FROM EMP) ORDER BY NAME",
		"SELECT NAME, (SELECT COUNT(*) FROM DEPT) FROM EMP",
		"SELECT NAME FROM EMP WHERE SALARY > (SELECT MIN(SALARY) FROM EMP) AND SALARY < (SELECT MAX(SALARY) FROM EMP)",
		"SELECT NAME FROM EMP WHERE DEPT IN (SELECT DEPT FROM DEPT WHERE REGION <> 'north')",
		"SELECT NAME FROM EMP WHERE EXISTS (SELECT 1 FROM DEPT WHERE REGION = 'east')",
		"SELECT DEPT, COUNT(*) FROM EMP GROUP BY DEPT HAVING COUNT(*) >= (SELECT COUNT(*) FROM DEPT) - 1",
		"SELECT e.NAME FROM EMP e JOIN DEPT d ON e.DEPT = d.DEPT AND e.SALARY < (SELECT MAX(SALARY) FROM EMP)",
		"SELECT NAME, CASE WHEN SALARY = (SELECT MAX(SALARY) FROM EMP) THEN 'top' END FROM EMP",
		// Errors: raised at the first row that reaches the subquery, and
		// never by a core with no rows.
		"SELECT NAME FROM EMP WHERE DEPT = (SELECT DEPT FROM DEPT)",
		"SELECT NAME FROM EMP WHERE ID > 10 AND DEPT = (SELECT DEPT FROM DEPT)",
		"SELECT NAME FROM EMP WHERE ID > 10 OR SALARY > (SELECT NAME, DEPT FROM EMP)",
		"SELECT NAME FROM EMP WHERE SALARY > (SELECT AVG(NOPE) FROM EMP)",
		// Uncorrelated under a correlated subquery: the inner one reads the
		// outer one's per-row CTE, so it must not be shared across rows.
		"SELECT NAME FROM EMP e WHERE EXISTS (WITH c AS (SELECT SALARY FROM EMP WHERE DEPT = e.DEPT) SELECT 1 FROM c WHERE SALARY = (SELECT MAX(SALARY) FROM c) AND e.SALARY = c.SALARY)",
		"SELECT NAME, (SELECT COUNT(*) FROM (SELECT 1 FROM EMP x WHERE x.DEPT = e.DEPT) t WHERE 1 = (SELECT 1)) FROM EMP e",
	} {
		runBothExec(t, db, sql)
	}
}

// TestComparisonMasks pins each operator's mask against the three
// sqldb.Compare results, and flip against swapped operands.
func TestComparisonMasks(t *testing.T) {
	want := map[string][3]bool{ // results -1, 0, 1
		"=": {false, true, false}, "<>": {true, false, true},
		"<": {true, false, false}, "<=": {true, true, false},
		">": {false, false, true}, ">=": {false, true, true},
	}
	flipped := map[string]string{"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
	for op, w := range want {
		m := comparisonMasks[op]
		for c := -1; c <= 1; c++ {
			if got := m.test(c) == vTrue; got != w[c+1] {
				t.Errorf("%s on Compare result %d: %v, want %v", op, c, got, w[c+1])
			}
		}
		if m.flip() != comparisonMasks[flipped[op]] {
			t.Errorf("%s flipped is not %s", op, flipped[op])
		}
	}
	if comparisonMasks["+"] != 0 || comparisonMasks["AND"] != 0 {
		t.Error("a non-comparison operator has a mask")
	}
}

// TestPredicateKernelsDoNotAllocate evaluates the typed leaves and flat
// AND/OR/NOT lists over one row: none allocates.
func TestPredicateKernelsDoNotAllocate(t *testing.T) {
	b := &binder{cols: []bindCol{{name: "V"}, {name: "S"}, {name: "D"}}}
	env := &rowEnv{row: sqldb.Row{sqldb.Int(2023), sqldb.Str("east"), sqldb.Str("2024-05-17")}}
	var got verdict
	for _, src := range []string{
		"V = 2023",
		"V >= 2022.5",
		"S = 'east'",
		"S > 10",
		"2022 <> V",
		"YEAR(D) = 2024",
		"MONTH(D) > 4",
		`TO_CHAR(D, 'YYYY"Q"Q') = '2024Q2'`,
		"S IN ('west', 'east')",
		"V > 2000 AND S = 'east' AND YEAR(D) = 2024",
		"V < 2000 OR S = 'west' OR QUARTER(D) = 2",
		"NOT (V = 2023 AND S = 'west')",
	} {
		stmt, err := sqlparse.Parse("SELECT 1 WHERE " + src)
		if err != nil {
			t.Fatal(err)
		}
		pred, _ := compilePred(stmt.Core.Where, b)
		if n := testing.AllocsPerRun(100, func() { got, _ = pred(env) }); n != 0 {
			t.Errorf("%s: %v allocs per row, want 0", src, n)
		}
		if got != vTrue {
			t.Errorf("%s: verdict %d, want TRUE", src, got)
		}
	}
}
