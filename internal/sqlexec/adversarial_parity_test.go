package sqlexec

import (
	"fmt"
	"testing"

	"genedit/internal/sqldb"
)

// Adversarial interpreter-vs-compiled parity: hand-built tables and
// statements aimed at the seams the randomized suite only grazes — empty
// tables, all-NULL and mixed-kind columns, sparse selections, and error
// selection across rows and clauses. Everything goes through runBothExec,
// so the interpreter remains the single source of truth.

func adversarialParityDB() *sqldb.Database {
	db := sqldb.NewDatabase("adversarial")

	empty := sqldb.NewTable("EMPTY",
		sqldb.Column{Name: "A", Type: "INTEGER"}, sqldb.Column{Name: "B", Type: "TEXT"})
	db.AddTable(empty)

	// T: I dense ints, F floats with NULL holes, S strings, N all-NULL,
	// M mixed kinds, BAD numeric strings with poisoned rows (see below).
	tt := sqldb.NewTable("T",
		sqldb.Column{Name: "I", Type: "INTEGER"},
		sqldb.Column{Name: "F", Type: "FLOAT"},
		sqldb.Column{Name: "S", Type: "TEXT"},
		sqldb.Column{Name: "N", Type: "TEXT"},
		sqldb.Column{Name: "M", Type: "TEXT"},
		sqldb.Column{Name: "EARLY", Type: "TEXT"},
		sqldb.Column{Name: "LATE", Type: "TEXT"},
	)
	for i := 0; i < 40; i++ {
		iv := sqldb.Value(sqldb.Int(int64(i % 9)))
		fv := sqldb.Value(sqldb.Float(float64(i) * 1.25))
		if i%5 == 3 {
			fv = sqldb.Null()
		}
		sv := sqldb.Value(sqldb.Str(fmt.Sprintf("v%02d", i%6)))
		if i%11 == 7 {
			sv = sqldb.Null()
		}
		var mv sqldb.Value
		switch i % 4 {
		case 0:
			mv = sqldb.Int(int64(i))
		case 1:
			mv = sqldb.Str("m" + fmt.Sprint(i%3))
		case 2:
			mv = sqldb.Float(0.5 * float64(i))
		default:
			mv = sqldb.Null()
		}
		// EARLY errors (non-numeric under arithmetic) at row 1 only; LATE
		// errors at row 20 only.
		ev := sqldb.Value(sqldb.Str("1"))
		if i == 1 {
			ev = sqldb.Str("boom")
		}
		lv := sqldb.Value(sqldb.Str("2"))
		if i == 20 {
			lv = sqldb.Str("pow")
		}
		tt.MustAppend(iv, fv, sv, sqldb.Null(), mv, ev, lv)
	}
	db.AddTable(tt)

	// BOOLS: a uniformly bool column plus ints, for kind-seam comparisons.
	bt := sqldb.NewTable("BOOLS",
		sqldb.Column{Name: "B", Type: "BOOLEAN"}, sqldb.Column{Name: "I", Type: "INTEGER"})
	for i := 0; i < 15; i++ {
		bv := sqldb.Value(sqldb.Bool(i%3 == 0))
		if i%7 == 5 {
			bv = sqldb.Null()
		}
		bt.MustAppend(bv, sqldb.Int(int64(i)))
	}
	db.AddTable(bt)
	return db
}

// adversarialStmts is the corpus of TestAdversarialParity, shared with the
// scratch-lifetime test (scratch_test.go).
var adversarialStmts = []string{
	// Empty table: scans and aggregates.
	"SELECT A, B FROM EMPTY",
	"SELECT A + 1 FROM EMPTY WHERE A > 0",
	"SELECT COUNT(*), COUNT(A), SUM(A), MIN(B), TOTAL(A) FROM EMPTY",
	"SELECT A, COUNT(*) FROM EMPTY GROUP BY A",
	"SELECT DISTINCT A FROM EMPTY ORDER BY 1 LIMIT 3",

	// All-NULL column in every clause position.
	"SELECT N FROM T",
	"SELECT I FROM T WHERE N IS NULL",
	"SELECT I FROM T WHERE N = 1",
	"SELECT N || 'x', N + 1, -N, NOT N FROM T",
	"SELECT COUNT(N), SUM(N), MIN(N), MAX(N), AVG(N), TOTAL(N) FROM T",
	"SELECT N, COUNT(*) FROM T GROUP BY N",

	// Sparse selections: every seventh row from either end, the last few
	// rows, the first row only.
	"SELECT I, F FROM T WHERE I % 7 = 0",
	"SELECT I, F FROM T WHERE I % 7 = 6",
	"SELECT I FROM T WHERE I >= 35",
	"SELECT I FROM T WHERE I < 1",

	// Operator coverage over typed, mixed and NULL-holed columns.
	"SELECT I + 2, I - 2, I * 3, I / 2, I % 3, -I FROM T",
	"SELECT F + 0.5, F * 2.0, F / 0.0, F % 0.0, -F FROM T",
	"SELECT I / 0, I % 0 FROM T",
	"SELECT S || '-' || S, UPPER(S) FROM T",
	"SELECT I FROM T WHERE S LIKE 'V0%'",
	"SELECT I FROM T WHERE S LIKE S",
	"SELECT I FROM T WHERE I BETWEEN 2 AND 5",
	"SELECT I FROM T WHERE F BETWEEN 1.0 AND 20.0",
	"SELECT I FROM T WHERE S BETWEEN 'v01' AND 'v04'",
	"SELECT I FROM T WHERE I IN (1, 3, NULL)",
	"SELECT I FROM T WHERE S IN ('v00', 'v05')",
	"SELECT I FROM T WHERE NOT (I > 3 AND F < 30.0) OR S IS NULL",
	"SELECT CASE WHEN I > 4 THEN 'hi' WHEN F > 10.0 THEN F ELSE M END FROM T",
	"SELECT CASE I WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM T",
	"SELECT M, M = 1, M < 'm1', M + 0 IS NULL FROM T WHERE M IS NOT NULL",
	"SELECT B, NOT B, -B, B = 1, B < TRUE FROM BOOLS",
	"SELECT I FROM BOOLS WHERE B",
	"SELECT COUNT(B), MIN(B), MAX(B) FROM BOOLS",

	// Error selection: WHERE errors beat projection errors regardless of
	// row position (LATE poisons row 20, EARLY poisons row 1).
	"SELECT EARLY + 1 FROM T WHERE LATE + 1 > 0",
	"SELECT LATE + 1 FROM T WHERE EARLY + 1 > 0",
	"SELECT EARLY + 1, LATE + 1 FROM T",
	"SELECT LATE + 1, EARLY + 1 FROM T",
	"SELECT I FROM T ORDER BY LATE + 1, EARLY + 1",
	"SELECT I, EARLY + 1 FROM T WHERE I % 7 = 1 ORDER BY LATE + 1",

	// IN lists: a constant list is evaluated once at compile time, and its
	// first error must still surface only for a row whose X evaluated clean
	// and non-NULL (N is NULL on every row, EARLY + 1 errors first on row
	// 1); a list with a column in it is evaluated per row, every item before
	// the verdict.
	"SELECT I FROM T WHERE I IN (1, 'x' + 1, 3)",
	"SELECT I FROM T WHERE N IN (1, 'x' + 1)",
	"SELECT I FROM T WHERE EARLY + 1 IN (2, 'x' + 1)",
	"SELECT A FROM EMPTY WHERE A IN ('x' + 1)",
	"SELECT I, I NOT IN (0, 2, NULL), S IN ('v01', S), 3 IN (1, 2, 3) FROM T",
	"SELECT I FROM T WHERE I IN (I, LATE + 1, EARLY + 1)",
	"SELECT I FROM T WHERE I IN (F, M, 4)",

	// Aggregation: every aggregate over every column kind, DISTINCT,
	// HAVING and error-carrying aggregates (SUM over non-numeric strings
	// errors in the finish; EARLY + 1 errors per-row while collecting).
	"SELECT COUNT(*), COUNT(F), SUM(I), SUM(F), AVG(I), AVG(F), MIN(I), MAX(F), MIN(S), MAX(S), TOTAL(I), TOTAL(F) FROM T",
	"SELECT COUNT(DISTINCT I), SUM(DISTINCT I), COUNT(DISTINCT S) FROM T",
	"SELECT SUM(S) FROM T",
	"SELECT AVG(M) FROM T",
	"SELECT SUM(EARLY + 1) FROM T",
	"SELECT I, COUNT(*), SUM(F) FROM T GROUP BY I ORDER BY I",
	"SELECT S, AVG(I) AS A FROM T GROUP BY S HAVING COUNT(*) > 3 ORDER BY A DESC, S",
	"SELECT M, COUNT(*) FROM T GROUP BY M",
	"SELECT I % 3, SUM(LATE + 0) FROM T GROUP BY I % 3",
	"SELECT I, MAX(F) FROM T GROUP BY I HAVING SUM(EARLY + 1) > 0",
	"SELECT I, COUNT(*) FROM T WHERE F IS NOT NULL GROUP BY I HAVING COUNT(*) >= 2 ORDER BY 2 DESC, 1 LIMIT 3",
	"SELECT SUM(I) FROM T WHERE I > 100",
	"SELECT MIN(I) FROM T WHERE I > 100",

	// DISTINCT / ORDER BY / LIMIT tails.
	"SELECT DISTINCT I % 4 FROM T ORDER BY 1 DESC",
	"SELECT DISTINCT S, I FROM T ORDER BY S, I LIMIT 5 OFFSET 2",
	"SELECT I, F FROM T ORDER BY F DESC, I LIMIT 4",
	"SELECT I FROM T ORDER BY I LIMIT 100 OFFSET 38",
}

func TestAdversarialParity(t *testing.T) {
	db := adversarialParityDB()
	for _, sql := range adversarialStmts {
		runBothExec(t, db, sql)
	}
}

// TestPlanCacheSeesAppendedRows checks a cached plan reads the table's
// current rows — not a copy bound at compile time — when rows are appended
// after the first execution.
func TestPlanCacheSeesAppendedRows(t *testing.T) {
	db := adversarialParityDB()
	exec := New(db)
	const sql = "SELECT COUNT(*), SUM(I) FROM T"

	for _, run := range []string{"first", "cached"} {
		res, err := exec.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := res.Rows[0][0].AsInt(); n != 40 {
			t.Fatalf("%s COUNT(*) = %d, want 40", run, n)
		}
	}

	db.Table("T").MustAppend(sqldb.Int(100), sqldb.Float(1), sqldb.Str("new"),
		sqldb.Null(), sqldb.Null(), sqldb.Str("1"), sqldb.Str("2"))
	res, err := exec.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 41 {
		t.Fatalf("post-append COUNT(*) = %d, want 41 (stale rows reused)", n)
	}
	runBothExec(t, db, "SELECT I, COUNT(*) FROM T GROUP BY I ORDER BY I")
}
