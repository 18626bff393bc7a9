package sqlexec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"genedit/internal/sqldb"
	"genedit/internal/sqlparse"
)

// Property-style parity tests for the compiled execution engine: with
// compilation enabled (the default) every statement must produce exactly
// the interpreter's columns, rows — in order — and error text.

// runBothExec executes sql compiled and interpreted and asserts full
// parity: error presence and text, column names, row-for-row values.
func runBothExec(t *testing.T, db *sqldb.Database, sql string) {
	t.Helper()
	cres, cerr := engine(db, true).Query(sql)
	ires, ierr := engine(db, false).Query(sql)
	if (cerr == nil) != (ierr == nil) {
		t.Fatalf("error parity broken for %q:\n  compiled:    %v\n  interpreted: %v", sql, cerr, ierr)
	}
	if cerr != nil {
		if cerr.Error() != ierr.Error() {
			t.Fatalf("error text drift for %q:\n  compiled:    %q\n  interpreted: %q", sql, cerr, ierr)
		}
		return
	}
	if len(cres.Columns) != len(ires.Columns) {
		t.Fatalf("column count mismatch for %q: compiled %v, interpreted %v", sql, cres.Columns, ires.Columns)
	}
	for i := range cres.Columns {
		if cres.Columns[i] != ires.Columns[i] {
			t.Fatalf("column %d mismatch for %q: compiled %q, interpreted %q",
				i, sql, cres.Columns[i], ires.Columns[i])
		}
	}
	if len(cres.Rows) != len(ires.Rows) {
		t.Fatalf("row count mismatch for %q: compiled %d, interpreted %d", sql, len(cres.Rows), len(ires.Rows))
	}
	for i := range cres.Rows {
		if len(cres.Rows[i]) != len(ires.Rows[i]) {
			t.Fatalf("row %d arity mismatch for %q", i, sql)
		}
		for j := range cres.Rows[i] {
			cv, iv := cres.Rows[i][j], ires.Rows[i][j]
			if cv.IsNull() != iv.IsNull() || (!cv.IsNull() && !cv.Equal(iv)) {
				t.Fatalf("row %d col %d mismatch for %q: compiled %v, interpreted %v",
					i, j, sql, cv.String(), iv.String())
			}
		}
	}
}

func compiledTestDB() *sqldb.Database {
	db := sqldb.NewDatabase("compiled")
	emp := sqldb.NewTable("EMP",
		sqldb.Column{Name: "ID"}, sqldb.Column{Name: "NAME"},
		sqldb.Column{Name: "DEPT"}, sqldb.Column{Name: "SALARY"},
		sqldb.Column{Name: "HIRED"})
	rows := []struct {
		id     int64
		name   string
		dept   string
		salary sqldb.Value
		hired  string
	}{
		{1, "ann", "eng", sqldb.Int(100), "2021-03-15"},
		{2, "bob", "sales", sqldb.Int(70), "2020-07-01"},
		{3, "cat", "sales", sqldb.Int(60), "2022-01-20"},
		{4, "dan", "ops", sqldb.Null(), "2019-11-05"},
		{5, "eve", "eng", sqldb.Int(80), "2023-05-30"},
	}
	for _, r := range rows {
		emp.MustAppend(sqldb.Int(r.id), sqldb.Str(r.name), sqldb.Str(r.dept), r.salary, sqldb.Str(r.hired))
	}
	dept := sqldb.NewTable("DEPT", sqldb.Column{Name: "DEPT"}, sqldb.Column{Name: "REGION"})
	dept.MustAppend(sqldb.Str("eng"), sqldb.Str("west"))
	dept.MustAppend(sqldb.Str("sales"), sqldb.Str("east"))
	dept.MustAppend(sqldb.Str("hr"), sqldb.Str("north"))
	db.AddTable(emp)
	db.AddTable(dept)
	return db
}

// compiledShapeStmts is the table of TestCompiledParityCoreShapes, which
// FuzzEngines also seeds from.
var compiledShapeStmts = []string{
	"SELECT * FROM EMP",
	"SELECT NAME, SALARY * 2 + 1 AS D FROM EMP WHERE SALARY > 60 ORDER BY D DESC",
	"SELECT DEPT, COUNT(*), SUM(SALARY), AVG(SALARY), MIN(NAME), MAX(SALARY) FROM EMP GROUP BY DEPT ORDER BY DEPT",
	"SELECT DEPT, COUNT(*) FROM EMP GROUP BY DEPT HAVING COUNT(*) > 1 ORDER BY 2 DESC, 1",
	"SELECT DISTINCT DEPT FROM EMP ORDER BY DEPT",
	"SELECT COUNT(DISTINCT DEPT) FROM EMP",
	"SELECT NAME FROM EMP WHERE DEPT IN ('eng', 'ops') ORDER BY NAME",
	"SELECT NAME FROM EMP WHERE SALARY BETWEEN 60 AND 90 ORDER BY 1",
	"SELECT NAME FROM EMP WHERE NAME LIKE 'a%' OR NAME LIKE '%t'",
	"SELECT NAME, CASE WHEN SALARY > 75 THEN 'hi' WHEN SALARY IS NULL THEN 'none' ELSE 'lo' END FROM EMP",
	"SELECT CASE DEPT WHEN 'eng' THEN 1 WHEN 'sales' THEN 2 END, NAME FROM EMP ORDER BY NAME",
	"SELECT UPPER(NAME) || '-' || DEPT, LENGTH(NAME), SUBSTR(NAME, 1, 2) FROM EMP",
	"SELECT YEAR(HIRED), QUARTER(HIRED), COUNT(*) FROM EMP GROUP BY YEAR(HIRED), QUARTER(HIRED) ORDER BY 1, 2",
	"SELECT CAST(SALARY AS FLOAT) / 3 FROM EMP WHERE SALARY IS NOT NULL",
	"SELECT e.NAME, d.REGION FROM EMP e JOIN DEPT d ON e.DEPT = d.DEPT ORDER BY e.NAME",
	"SELECT e.NAME, d.REGION FROM EMP e LEFT JOIN DEPT d ON e.DEPT = d.DEPT ORDER BY e.NAME",
	"SELECT e.NAME, d.DEPT FROM EMP e RIGHT JOIN DEPT d ON e.DEPT = d.DEPT ORDER BY d.DEPT, e.NAME",
	"SELECT e.NAME, d.DEPT FROM EMP e FULL JOIN DEPT d ON e.DEPT = d.DEPT ORDER BY 2, 1",
	"WITH RICH AS (SELECT NAME, SALARY FROM EMP WHERE SALARY >= 80) SELECT COUNT(*), SUM(SALARY) FROM RICH",
	"WITH R(N, S) AS (SELECT NAME, SALARY FROM EMP) SELECT N FROM R WHERE S > 70 ORDER BY N",
	"SELECT T.NAME FROM (SELECT NAME, SALARY FROM EMP WHERE SALARY > 60) T ORDER BY T.NAME",
	"SELECT DEPT FROM EMP UNION SELECT DEPT FROM DEPT ORDER BY DEPT",
	"SELECT DEPT FROM EMP UNION ALL SELECT DEPT FROM DEPT",
	"SELECT DEPT FROM DEPT EXCEPT SELECT DEPT FROM EMP",
	"SELECT DEPT FROM DEPT INTERSECT SELECT DEPT FROM EMP ORDER BY 1 LIMIT 1",
	"SELECT NAME FROM EMP WHERE SALARY > (SELECT AVG(SALARY) FROM EMP)",
	"SELECT NAME FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.DEPT = e.DEPT)",
	"SELECT NAME, (SELECT REGION FROM DEPT d WHERE d.DEPT = e.DEPT) FROM EMP e ORDER BY NAME",
	"SELECT NAME FROM EMP WHERE DEPT IN (SELECT DEPT FROM DEPT WHERE REGION <> 'north')",
	"SELECT 1 + 2 * 3, 'a' || 'b', NOT TRUE, -(4), NULLIF(1, 1), COALESCE(NULL, 'x')",
	"SELECT NAME, ROW_NUMBER() OVER (PARTITION BY DEPT ORDER BY SALARY DESC) FROM EMP ORDER BY NAME",
	"SELECT NAME, RANK() OVER (ORDER BY SALARY DESC), SUM(SALARY) OVER () FROM EMP ORDER BY NAME",
	// A correlated subquery inside a join's ON: a residual after the
	// hash key, and the whole ON of a nested loop.
	"SELECT e.NAME, d.REGION FROM EMP e JOIN DEPT d ON e.DEPT = d.DEPT AND d.REGION = (SELECT MAX(d2.REGION) FROM DEPT d2 WHERE d2.DEPT = e.DEPT AND e.SALARY > 60) ORDER BY e.NAME",
	"SELECT e.NAME, d.REGION FROM EMP e LEFT JOIN DEPT d ON EXISTS (SELECT 1 FROM EMP x WHERE x.DEPT = d.DEPT AND x.SALARY > e.SALARY) ORDER BY 1, 2",
	// A window over a grouped core, a window only in ORDER BY, and
	// LAG/LEAD with a default.
	"SELECT DEPT, SUM(SALARY), RANK() OVER (ORDER BY SUM(SALARY) DESC) FROM EMP GROUP BY DEPT ORDER BY DEPT",
	"SELECT NAME FROM EMP ORDER BY ROW_NUMBER() OVER (ORDER BY SALARY DESC, NAME) DESC",
	"SELECT NAME, LAG(SALARY, 1, ID * 10) OVER (ORDER BY ID), LEAD(NAME, 1, DEPT || '-') OVER (PARTITION BY DEPT ORDER BY ID) FROM EMP ORDER BY ID",
}

func TestCompiledParityCoreShapes(t *testing.T) {
	db := compiledTestDB()
	for _, sql := range compiledShapeStmts {
		runBothExec(t, db, sql)
	}
}

// compiledErrorStmts is the table of TestCompiledParityErrors, which
// FuzzEngines also seeds from.
var compiledErrorStmts = []string{
	"SELECT * FROM MISSING",
	"SELECT NOPE FROM EMP",
	"SELECT x.NAME FROM EMP",
	"SELECT UNKNOWN_FUNC(NAME) FROM EMP",
	"SELECT SUM(SALARY, 2) FROM EMP",
	"SELECT AVG(*) FROM EMP",
	"SELECT NAME FROM EMP ORDER BY 9",
	"SELECT CAST(NAME AS INTEGER) FROM EMP",
	"SELECT NAME + 1 FROM EMP",
	"SELECT -NAME FROM EMP",
	"SELECT YEAR(NAME) FROM EMP",
	"SELECT SQRT(0 - SALARY) FROM EMP",
	"SELECT NAME FROM EMP WHERE CAST(NAME AS INTEGER) > 0",
	"SELECT DEPT, COUNT(*) FROM EMP GROUP BY DEPT HAVING SUM(CAST(NAME AS INTEGER)) > 0",
	"SELECT DEPT FROM EMP GROUP BY CAST(NAME AS INTEGER)",
	"SELECT NAME FROM EMP ORDER BY CAST(NAME AS INTEGER)",
	"SELECT (SELECT NAME, DEPT FROM EMP) FROM EMP",
	"SELECT (SELECT NAME FROM EMP) FROM DEPT",
	"SELECT NAME FROM EMP WHERE SALARY IN (SELECT SALARY, ID FROM EMP)",
	"WITH C(A) AS (SELECT NAME, DEPT FROM EMP) SELECT A FROM C",
	"SELECT SUM(SALARY) FROM EMP WHERE SUM(SALARY) > 0",
	"SELECT ROW_NUMBER() OVER () FROM EMP WHERE ROW_NUMBER() OVER () > 1",
	"SELECT 1 UNION SELECT 1, 2",
	"SELECT 'x' + 1",
	// Errors the plan records and raises where the interpreter does:
	// an unknown table after the left input's error, a star over an
	// unknown qualifier after WHERE's, an ORDER BY position out of
	// range after a window call's.
	"SELECT * FROM (SELECT CAST(NAME AS INTEGER) AS X FROM EMP) a JOIN MISSING m ON a.X = m.X",
	"SELECT x.* FROM EMP WHERE CAST(NAME AS INTEGER) > 0",
	"SELECT NAME, LAG(SALARY, 1, 2, 3) OVER (ORDER BY ID) FROM EMP ORDER BY 9",
}

func TestCompiledParityErrors(t *testing.T) {
	db := compiledTestDB()
	for _, sql := range compiledErrorStmts {
		runBothExec(t, db, sql)
	}
}

// TestGroupKeyDelimiterInjection is the regression test for the aliasing
// bug where groupRows and rowKey joined Value.Key() components with a bare
// '\x1f': adversarial strings containing the delimiter (or the
// length-prefix characters) must not merge distinct groups, DISTINCT rows
// or compound-select rows.
func TestGroupKeyDelimiterInjection(t *testing.T) {
	db := sqldb.NewDatabase("inject")
	tbl := sqldb.NewTable("T", sqldb.Column{Name: "A"}, sqldb.Column{Name: "B"}, sqldb.Column{Name: "V"})
	pairs := [][2]string{
		{"a\x1f", "b"}, {"a", "\x1fb"},
		{"x", ""}, {"", "x"},
		{"1|y", "z"}, {"1", "|yz"},
		{"#1", "2"}, {"#", "12"},
	}
	for i, p := range pairs {
		tbl.MustAppend(sqldb.Str(p[0]), sqldb.Str(p[1]), sqldb.Int(int64(i)))
	}
	db.AddTable(tbl)

	for _, mode := range []bool{true, false} {
		exec := engine(db, mode)
		res, err := exec.Query("SELECT A, B, COUNT(*) FROM T GROUP BY A, B")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(pairs) {
			t.Errorf("compiled=%v: GROUP BY merged adversarial keys: %d groups, want %d",
				mode, len(res.Rows), len(pairs))
		}
		for _, r := range res.Rows {
			if n, _ := r[2].AsInt(); n != 1 {
				t.Errorf("compiled=%v: group (%q,%q) has count %d, want 1", mode, r[0].S, r[1].S, n)
			}
		}
		res, err = exec.Query("SELECT DISTINCT A, B FROM T")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(pairs) {
			t.Errorf("compiled=%v: DISTINCT merged adversarial rows: %d, want %d", mode, len(res.Rows), len(pairs))
		}
		res, err = exec.Query("SELECT A, B FROM T UNION SELECT A, B FROM T")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(pairs) {
			t.Errorf("compiled=%v: UNION merged adversarial rows: %d, want %d", mode, len(res.Rows), len(pairs))
		}
	}
	runBothExec(t, db, "SELECT A, B, COUNT(*) FROM T GROUP BY A, B ORDER BY V")
	runBothExec(t, db, "SELECT A, ROW_NUMBER() OVER (PARTITION BY A, B ORDER BY V) FROM T ORDER BY V")
}

// TestLimitOffsetFolding covers the satellite bugfix: LIMIT/OFFSET are
// folded once per statement on both paths; constant expressions work,
// non-constant and non-integer ones are rejected with an ExecError, and
// fold errors surface only after the core has evaluated (a WHERE error
// still wins).
func TestLimitOffsetFolding(t *testing.T) {
	db := compiledTestDB()
	for _, sql := range []string{
		"SELECT NAME FROM EMP ORDER BY NAME LIMIT 2",
		"SELECT NAME FROM EMP ORDER BY NAME LIMIT 1 + 1 OFFSET 2 - 1",
		"SELECT NAME FROM EMP ORDER BY NAME LIMIT -1",
		"SELECT NAME FROM EMP ORDER BY NAME LIMIT 100 OFFSET 100",
		"SELECT NAME FROM EMP ORDER BY NAME LIMIT 'x'",
		"SELECT NAME FROM EMP ORDER BY NAME LIMIT SALARY",
		"SELECT NAME FROM EMP ORDER BY NAME LIMIT (SELECT 1)",
		"SELECT NAME FROM EMP ORDER BY NAME LIMIT 2 OFFSET 'y'",
		"SELECT NAME FROM EMP ORDER BY NAME LIMIT LENGTH('ab')",
		"SELECT DEPT FROM EMP UNION SELECT DEPT FROM DEPT ORDER BY DEPT LIMIT 2 OFFSET 1",
		"SELECT DEPT FROM EMP UNION SELECT DEPT FROM DEPT LIMIT UNKNOWN_FUNC(1)",
	} {
		runBothExec(t, db, sql)
	}
	for _, mode := range []bool{true, false} {
		exec := engine(db, mode)
		_, err := exec.Query("SELECT NAME FROM EMP LIMIT SALARY")
		if err == nil || !strings.Contains(err.Error(), "constant") {
			t.Errorf("compiled=%v: non-constant LIMIT error = %v, want constant-expression rejection", mode, err)
		}
		if _, ok := err.(*ExecError); !ok {
			t.Errorf("compiled=%v: non-constant LIMIT should be *ExecError, got %T", mode, err)
		}
		_, err = exec.Query("SELECT NAME FROM EMP LIMIT 'x'")
		if err == nil || !strings.Contains(err.Error(), "requires an integer") {
			t.Errorf("compiled=%v: non-integer LIMIT error = %v", mode, err)
		}
		// A WHERE evaluation error must surface before the LIMIT fold error.
		_, err = exec.Query("SELECT NAME FROM EMP WHERE CAST(NAME AS INTEGER) > 0 LIMIT 'x'")
		if err == nil || !strings.Contains(err.Error(), "cannot cast") {
			t.Errorf("compiled=%v: WHERE error should precede LIMIT error, got %v", mode, err)
		}
	}
}

// TestTopNOrderByParity checks ORDER BY + LIMIT/OFFSET against the
// interpreter, including duplicate keys (where stability is observable),
// NULL keys, DESC, and limits at, below and past the result size.
func TestTopNOrderByParity(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	db := sqldb.NewDatabase("topn")
	tbl := sqldb.NewTable("T", sqldb.Column{Name: "K"}, sqldb.Column{Name: "V"}, sqldb.Column{Name: "G"})
	for i := 0; i < 500; i++ {
		k := sqldb.Value(sqldb.Int(int64(r.Intn(20)))) // heavy duplication: ties decided by stability
		if r.Float64() < 0.1 {
			k = sqldb.Null()
		}
		tbl.MustAppend(k, sqldb.Int(int64(i)), sqldb.Str(fmt.Sprintf("g%d", r.Intn(4))))
	}
	db.AddTable(tbl)
	for _, sql := range []string{
		"SELECT K, V FROM T ORDER BY K LIMIT 7",
		"SELECT K, V FROM T ORDER BY K DESC LIMIT 7",
		"SELECT K, V FROM T ORDER BY K, V DESC LIMIT 13 OFFSET 5",
		"SELECT K, V FROM T ORDER BY K LIMIT 0",
		"SELECT K, V FROM T ORDER BY K LIMIT 499",
		"SELECT K, V FROM T ORDER BY K LIMIT 500",
		"SELECT K, V FROM T ORDER BY K LIMIT 1000 OFFSET 490",
		"SELECT V FROM T ORDER BY K LIMIT 3",
		"SELECT DISTINCT K FROM T ORDER BY K DESC LIMIT 5",
		"SELECT G, SUM(V) AS S FROM T GROUP BY G ORDER BY S DESC LIMIT 2",
		"SELECT K, V FROM T ORDER BY 1 DESC, 2 LIMIT 9 OFFSET 3",
	} {
		runBothExec(t, db, sql)
	}
}

// TestPredicatePushdownParity checks WHERE over joins against the
// interpreter: single-side conjuncts across all join kinds, null-accepting
// predicates (IS NULL) that see an outer join's synthesized NULL rows,
// erroring conjuncts, and ON expressions that can error on rows the WHERE
// would later drop.
func TestPredicatePushdownParity(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	db := parityDB(r, 40, 40, 10, 0.15)
	for _, kind := range joinKinds {
		runBothExec(t, db, fmt.Sprintf(
			"SELECT LV, RV FROM L %s R ON L.K = R.K WHERE L.GRP = 'g1'", kind))
		runBothExec(t, db, fmt.Sprintf(
			"SELECT LV, RV FROM L %s R ON L.K = R.K WHERE R.GRP = 'g2' ORDER BY LV, RV", kind))
		runBothExec(t, db, fmt.Sprintf(
			"SELECT LV, RV FROM L %s R ON L.K = R.K WHERE L.GRP = 'g1' AND R.GRP <> 'g0'", kind))
		// Null-accepting predicates on each side: they must see the rows an
		// outer join synthesizes for its null-supplying input.
		runBothExec(t, db, fmt.Sprintf(
			"SELECT COUNT(*) FROM L %s R ON L.K = R.K WHERE L.K IS NULL", kind))
		runBothExec(t, db, fmt.Sprintf(
			"SELECT COUNT(*) FROM L %s R ON L.K = R.K WHERE R.K IS NULL", kind))
		runBothExec(t, db, fmt.Sprintf(
			"SELECT COUNT(*) FROM L %s R ON L.K = R.K WHERE R.RV IS NULL OR R.GRP = 'g1'", kind))
		// A conjunct over both sides.
		runBothExec(t, db, fmt.Sprintf(
			"SELECT COUNT(*) FROM L %s R ON L.K = R.K WHERE L.GRP = R.GRP AND L.LV < 20", kind))
		// Conjuncts that can error (arithmetic, CAST) must error
		// identically.
		runBothExec(t, db, fmt.Sprintf(
			"SELECT COUNT(*) FROM L %s R ON L.K = R.K WHERE L.LV + 0 >= 0 AND R.GRP = 'g1'", kind))
		runBothExec(t, db, fmt.Sprintf(
			"SELECT COUNT(*) FROM L %s R ON L.K = R.K WHERE CAST(L.GRP AS INTEGER) > 0", kind))
	}
	// Three-way join: conjuncts over the leaves of nested join nodes.
	runBothExec(t, db,
		"SELECT COUNT(*) FROM L JOIN R ON L.K = R.K JOIN L AS L2 ON R.K = L2.K WHERE L2.GRP = 'g1' AND L.GRP = 'g0'")

	// A join whose ON expression can error: the interpreter evaluates ON
	// for rows the WHERE filter later removes, so the error must surface.
	errDB := sqldb.NewDatabase("onerr")
	a := sqldb.NewTable("A", sqldb.Column{Name: "S"}, sqldb.Column{Name: "N"})
	a.MustAppend(sqldb.Str("drop"), sqldb.Str("abc"))
	a.MustAppend(sqldb.Str("keep"), sqldb.Int(1))
	bt := sqldb.NewTable("B", sqldb.Column{Name: "M"})
	bt.MustAppend(sqldb.Int(1))
	errDB.AddTable(a)
	errDB.AddTable(bt)
	runBothExec(t, errDB, "SELECT A.S FROM A JOIN B ON A.N + B.M = 2 WHERE A.S = 'keep'")
	runBothExec(t, errDB, "SELECT A.S FROM A JOIN B ON CAST(A.N AS INTEGER) = B.M WHERE A.S = 'keep'")
}

// TestCompiledConstantFolding pins folding behaviour: constant expressions
// collapse to constant programs, and folded errors stay latent until the
// expression's evaluation point (zero rows = no error).
func TestCompiledConstantFolding(t *testing.T) {
	_, isConst := compileExpr(&sqlparse.Binary{
		Op: "+",
		L:  &sqlparse.NumberLit{Text: "1"},
		R:  &sqlparse.Binary{Op: "*", L: &sqlparse.NumberLit{Text: "2"}, R: &sqlparse.NumberLit{Text: "3"}},
	}, nil)
	if !isConst {
		t.Error("constant arithmetic should fold")
	}
	if _, isConst = compileExpr(&sqlparse.ColumnRef{Name: "X"}, nil); isConst {
		t.Error("column refs must not fold")
	}

	// An erroring constant in the projection of an empty relation must not
	// surface: the interpreter never evaluates it.
	db := sqldb.NewDatabase("fold")
	empty := sqldb.NewTable("E", sqldb.Column{Name: "A"})
	db.AddTable(empty)
	runBothExec(t, db, "SELECT 'x' + 1 FROM E")
	runBothExec(t, db, "SELECT CASE WHEN FALSE THEN 'x' + 1 ELSE 0 END")
	// Short-circuited AND never evaluates its erroring right arm on FALSE.
	runBothExec(t, db, "SELECT 1 WHERE FALSE AND 'x' + 1 > 0")
}
