package sqlexec

import (
	"fmt"
	"math/rand"
	"testing"

	"genedit/internal/sqldb"
)

// Property-style parity tests: the hash-join fast path must produce exactly
// the same rows, in the same order, as the nested-loop reference across all
// join kinds — including NULL keys, duplicate keys, residual non-equi
// conjuncts, and mixed-kind key columns (which must fall back).

// parityDB builds two tables with overlapping integer keys, NULLs and
// duplicates at the given rates, plus payload columns.
func parityDB(r *rand.Rand, leftN, rightN, keySpace int, nullRate float64) *sqldb.Database {
	db := sqldb.NewDatabase("parity")
	left := sqldb.NewTable("L",
		sqldb.Column{Name: "K"}, sqldb.Column{Name: "LV"}, sqldb.Column{Name: "GRP"})
	for i := 0; i < leftN; i++ {
		k := sqldb.Int(int64(r.Intn(keySpace)))
		if r.Float64() < nullRate {
			k = sqldb.Null()
		}
		left.MustAppend(k, sqldb.Int(int64(i)), sqldb.Str(fmt.Sprintf("g%d", r.Intn(3))))
	}
	right := sqldb.NewTable("R",
		sqldb.Column{Name: "K"}, sqldb.Column{Name: "RV"}, sqldb.Column{Name: "GRP"})
	for i := 0; i < rightN; i++ {
		k := sqldb.Int(int64(r.Intn(keySpace)))
		if r.Float64() < nullRate {
			k = sqldb.Null()
		}
		right.MustAppend(k, sqldb.Int(int64(100+i)), sqldb.Str(fmt.Sprintf("g%d", r.Intn(3))))
	}
	db.AddTable(left)
	db.AddTable(right)
	return db
}

// runBoth executes sql with the hash path enabled and disabled and asserts
// the same error text, or row-for-row (ordered) equality.
func runBoth(t *testing.T, db *sqldb.Database, sql string) {
	t.Helper()
	hashExec := New(db)
	nestedExec := New(db)
	nestedExec.SetHashJoin(false)

	hres, herr := hashExec.Query(sql)
	nres, nerr := nestedExec.Query(sql)
	if (herr == nil) != (nerr == nil) {
		t.Fatalf("error parity broken for %q:\n  hash:   %v\n  nested: %v", sql, herr, nerr)
	}
	if herr != nil {
		if herr.Error() != nerr.Error() {
			t.Fatalf("error text drift for %q:\n  hash:   %q\n  nested: %q", sql, herr, nerr)
		}
		return
	}
	if len(hres.Rows) != len(nres.Rows) {
		t.Fatalf("row count mismatch for %q: hash %d, nested %d", sql, len(hres.Rows), len(nres.Rows))
	}
	for i := range hres.Rows {
		for j := range hres.Rows[i] {
			hv, nv := hres.Rows[i][j], nres.Rows[i][j]
			if hv.IsNull() != nv.IsNull() || (!hv.IsNull() && !hv.Equal(nv)) {
				t.Fatalf("row %d col %d mismatch for %q: hash %v, nested %v",
					i, j, sql, hv.String(), nv.String())
			}
		}
	}
}

var joinKinds = []string{"JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"}

func TestHashJoinParityEquiAllKinds(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		db := parityDB(r, 20+r.Intn(40), 20+r.Intn(40), 12, 0.15)
		for _, kind := range joinKinds {
			runBoth(t, db, fmt.Sprintf("SELECT L.K, LV, R.K, RV FROM L %s R ON L.K = R.K", kind))
		}
	}
}

func TestHashJoinParityResidualConjuncts(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		db := parityDB(r, 30, 30, 8, 0.1)
		for _, kind := range joinKinds {
			// Equi conjunct plus non-equi residual; conjunct order varied so
			// residual placement before/after the equi key is covered.
			runBoth(t, db, fmt.Sprintf(
				"SELECT LV, RV FROM L %s R ON L.K = R.K AND LV < RV", kind))
			runBoth(t, db, fmt.Sprintf(
				"SELECT LV, RV FROM L %s R ON LV < RV AND L.K = R.K AND L.GRP = R.GRP", kind))
		}
	}
}

func TestHashJoinParityCompositeAndExpressionKeys(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	db := parityDB(r, 40, 40, 6, 0.1)
	for _, kind := range joinKinds {
		runBoth(t, db, fmt.Sprintf(
			"SELECT LV, RV FROM L %s R ON L.K = R.K AND L.GRP = R.GRP", kind))
		// Arithmetic on one side of the key still hashes.
		runBoth(t, db, fmt.Sprintf(
			"SELECT LV, RV FROM L %s R ON L.K + 1 = R.K", kind))
		// Constant-vs-column equality conjunct.
		runBoth(t, db, fmt.Sprintf(
			"SELECT LV, RV FROM L %s R ON L.K = R.K AND R.GRP = 'g1'", kind))
	}
}

func TestHashJoinParityMixedKindKeys(t *testing.T) {
	// Compare semantics across kinds (int 1, string "1", bool, float) are
	// not an equivalence relation; the hash path must fall back and results
	// must still match the nested loop exactly.
	db := sqldb.NewDatabase("mixed")
	left := sqldb.NewTable("L", sqldb.Column{Name: "K"}, sqldb.Column{Name: "LV"})
	right := sqldb.NewTable("R", sqldb.Column{Name: "K"}, sqldb.Column{Name: "RV"})
	leftKeys := []sqldb.Value{
		sqldb.Int(1), sqldb.Str("1"), sqldb.Float(2.5), sqldb.Str("TRUE"),
		sqldb.Bool(true), sqldb.Null(), sqldb.Str("x"),
	}
	rightKeys := []sqldb.Value{
		sqldb.Float(1), sqldb.Str("2.5"), sqldb.Bool(true), sqldb.Int(1),
		sqldb.Null(), sqldb.Str("TRUE"), sqldb.Str("x"),
	}
	for i, k := range leftKeys {
		left.MustAppend(k, sqldb.Int(int64(i)))
	}
	for i, k := range rightKeys {
		right.MustAppend(k, sqldb.Int(int64(100+i)))
	}
	db.AddTable(left)
	db.AddTable(right)
	for _, kind := range joinKinds {
		runBoth(t, db, fmt.Sprintf("SELECT LV, RV FROM L %s R ON L.K = R.K", kind))
	}
}

func TestHashJoinParityDownstreamClauses(t *testing.T) {
	// Joins feeding aggregation, ordering and DISTINCT must be unaffected.
	r := rand.New(rand.NewSource(17))
	db := parityDB(r, 50, 50, 10, 0.1)
	runBoth(t, db, "SELECT L.GRP, COUNT(*), SUM(RV) FROM L JOIN R ON L.K = R.K GROUP BY L.GRP ORDER BY L.GRP")
	runBoth(t, db, "SELECT DISTINCT L.K FROM L LEFT JOIN R ON L.K = R.K ORDER BY 1")
	runBoth(t, db, "SELECT LV, RV FROM L JOIN R ON L.K = R.K ORDER BY LV, RV LIMIT 10")
	// Three-way join chains through nested JoinExprs.
	runBoth(t, db, "SELECT COUNT(*) FROM L JOIN R ON L.K = R.K JOIN L AS L2 ON R.K = L2.K")
}

func TestHashJoinEmptySides(t *testing.T) {
	db := sqldb.NewDatabase("empty")
	left := sqldb.NewTable("L", sqldb.Column{Name: "K"})
	right := sqldb.NewTable("R", sqldb.Column{Name: "K"})
	left.MustAppend(sqldb.Int(1))
	db.AddTable(left)
	db.AddTable(right)
	for _, kind := range joinKinds {
		runBoth(t, db, fmt.Sprintf("SELECT * FROM L %s R ON L.K = R.K", kind))
	}
}

func TestStatementCacheHitsAndParity(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	db := parityDB(r, 20, 20, 8, 0.1)
	exec := New(db)
	sql := "SELECT COUNT(*) FROM L JOIN R ON L.K = R.K"
	first, err := exec.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := exec.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !first.Rows[0][0].Equal(again.Rows[0][0]) {
			t.Fatalf("cached statement changed result: %v vs %v",
				first.Rows[0][0].String(), again.Rows[0][0].String())
		}
	}
	hits, misses := exec.StatementCacheStats()
	if hits != 5 || misses != 1 {
		t.Errorf("cache stats = %d hits / %d misses, want 5 / 1", hits, misses)
	}

	uncached := New(db)
	uncached.SetStatementCaching(false)
	res, err := uncached.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].Equal(first.Rows[0][0]) {
		t.Fatalf("uncached result differs: %v vs %v", res.Rows[0][0].String(), first.Rows[0][0].String())
	}
	if h, m := uncached.StatementCacheStats(); h != 0 || m != 0 {
		t.Errorf("disabled cache reported stats %d/%d", h, m)
	}
}

func TestHashJoinParityDelimiterInjection(t *testing.T) {
	// Multi-column string keys containing the encoding delimiter must not
	// alias across columns ("a\x1f"+"b" vs "a"+"\x1fb").
	db := sqldb.NewDatabase("delim")
	left := sqldb.NewTable("L", sqldb.Column{Name: "A"}, sqldb.Column{Name: "B"})
	right := sqldb.NewTable("R", sqldb.Column{Name: "A"}, sqldb.Column{Name: "B"})
	left.MustAppend(sqldb.Str("a\x1f"), sqldb.Str("b"))
	left.MustAppend(sqldb.Str("7|x"), sqldb.Str("y"))
	right.MustAppend(sqldb.Str("a"), sqldb.Str("\x1fb"))
	right.MustAppend(sqldb.Str("7"), sqldb.Str("|xy"))
	right.MustAppend(sqldb.Str("a\x1f"), sqldb.Str("b"))
	db.AddTable(left)
	db.AddTable(right)
	for _, kind := range joinKinds {
		runBoth(t, db, fmt.Sprintf("SELECT L.A, L.B, R.A, R.B FROM L %s R ON L.A = R.A AND L.B = R.B", kind))
	}
}

func TestHashJoinParityResidualErrorBeforeEqui(t *testing.T) {
	// A residual conjunct that errors and precedes the equi conjunct in the
	// AND tree must fail under both paths: the nested loop evaluates it for
	// every pair, so the hash path may not skip it just because the equi key
	// never matches (equi conds are only taken from the conjunct prefix).
	db := sqldb.NewDatabase("resid")
	left := sqldb.NewTable("L", sqldb.Column{Name: "NAME"}, sqldb.Column{Name: "K"})
	right := sqldb.NewTable("R", sqldb.Column{Name: "K"})
	left.MustAppend(sqldb.Str("abc"), sqldb.Int(1))
	right.MustAppend(sqldb.Int(2))
	db.AddTable(left)
	db.AddTable(right)
	runBoth(t, db, "SELECT COUNT(*) FROM L JOIN R ON CAST(L.NAME AS INTEGER) > 0 AND L.K = R.K")
	// Same conjuncts with the equi first: the hash path applies, and both
	// paths succeed because the erroring residual is only reached for pairs
	// whose keys match (there are none).
	runBoth(t, db, "SELECT COUNT(*) FROM L JOIN R ON L.K = R.K AND CAST(L.NAME AS INTEGER) > 0")
}

func TestHashJoinParityNullKeyResidualError(t *testing.T) {
	// SQL AND does not short-circuit on NULL: for a pair whose key conjunct
	// is NULL the nested loop still evaluates the residual, so a residual
	// that errors must fail under both paths even when the only pairs
	// reaching it have NULL keys (the hash path must fall back).
	db := sqldb.NewDatabase("nullresid")
	left := sqldb.NewTable("L", sqldb.Column{Name: "K"}, sqldb.Column{Name: "NAME"})
	right := sqldb.NewTable("R", sqldb.Column{Name: "K"})
	left.MustAppend(sqldb.Null(), sqldb.Str("abc"))
	right.MustAppend(sqldb.Int(2))
	db.AddTable(left)
	db.AddTable(right)
	runBoth(t, db, "SELECT COUNT(*) FROM L JOIN R ON L.K = R.K AND CAST(L.NAME AS INTEGER) > 0")
	// Same shape where the later *key* conjunct errors on the NULL-keyed
	// row: all key expressions are evaluated for every row, so the error
	// triggers the fallback and surfaces exactly as the nested loop's.
	runBoth(t, db, "SELECT COUNT(*) FROM L JOIN R ON L.K = R.K AND CAST(L.NAME AS INTEGER) = R.K")
}

func TestHashJoinParityNullResidualContinues(t *testing.T) {
	// A NULL residual conjunct rejects the pair but does not stop the AND
	// chain: a later erroring conjunct still surfaces under both paths.
	db := sqldb.NewDatabase("nullchain")
	left := sqldb.NewTable("L", sqldb.Column{Name: "K"}, sqldb.Column{Name: "V"}, sqldb.Column{Name: "NAME"})
	right := sqldb.NewTable("R", sqldb.Column{Name: "K"})
	left.MustAppend(sqldb.Int(1), sqldb.Null(), sqldb.Str("abc"))
	right.MustAppend(sqldb.Int(1))
	db.AddTable(left)
	db.AddTable(right)
	runBoth(t, db, "SELECT COUNT(*) FROM L JOIN R ON L.K = R.K AND L.V > 0 AND CAST(L.NAME AS INTEGER) > 0")
}
