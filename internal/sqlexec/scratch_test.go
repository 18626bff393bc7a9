package sqlexec

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"genedit/internal/sqldb"
)

// The per-query scratch (pool.go) is reused by the next Query on the same
// goroutine, so a Result that kept a view of it would change under the
// caller. These tests pin the arena's own contract, then the lifetime rule
// end to end, then the allocation counts the scratch buys.

func TestArenaStackDiscipline(t *testing.T) {
	var a arena[int]
	first := a.take(10)
	for i := range first {
		first[i] = 100 + i
	}
	m := a.mark()
	inner := a.take(20)
	if len(inner) != 20 || cap(inner) != 20 {
		t.Fatalf("take(20): len %d cap %d", len(inner), cap(inner))
	}
	for i := range inner {
		inner[i] = -1
	}
	a.release(m)
	if a.used != 10 {
		t.Fatalf("release left %d slots in use, want 10", a.used)
	}
	again := a.take(20)
	if &again[0] != &inner[0] {
		t.Error("released slots were not handed out again")
	}
	for i, v := range again {
		if v != 0 {
			t.Fatalf("slot %d of a reused slice holds %d: release must clear what it frees", i, v)
		}
	}
	for i, v := range first {
		if v != 100+i {
			t.Fatalf("slice taken before the mark changed: slot %d = %d", i, v)
		}
	}
}

// TestArenaGrowthKeepsEarlierSlices: a take that outgrows the buffer
// replaces it; slices from the old buffer stay intact, and a mark taken
// before the replacement releases the whole new buffer.
func TestArenaGrowthKeepsEarlierSlices(t *testing.T) {
	var a arena[int]
	early := a.take(arenaMinSlots / 2)
	for i := range early {
		early[i] = 7
	}
	m := a.mark()
	big := a.take(10 * arenaMinSlots)
	for i := range big {
		big[i] = 9
	}
	if len(a.buf) < 10*arenaMinSlots {
		t.Fatalf("buffer holds %d slots after take(%d)", len(a.buf), 10*arenaMinSlots)
	}
	for i, v := range early {
		if v != 7 {
			t.Fatalf("slice from the replaced buffer changed: slot %d = %d", i, v)
		}
	}
	a.release(m)
	if a.used != 0 {
		t.Fatalf("a mark from before the replacement released to %d, want 0", a.used)
	}
	if next := a.take(1); &next[0] != &big[0] || next[0] != 0 {
		t.Error("the new buffer was not released and cleared from its start")
	}
}

func TestScratchDropsOversizedArenas(t *testing.T) {
	// A fresh scratch, not one from the pool: a pooled one may still hold an
	// earlier query's arenas and key map, which the checks below would see.
	s := new(queryScratch)
	s.root = scope{scr: s}
	s.rows.take(scratchRetainSlots + 1)
	s.ints.take(arenaMinSlots)
	big := make(map[string]int)
	for i := 0; i <= scratchRetainSlots; i++ {
		big[fmt.Sprint(i)] = i
	}
	s.putIDs(big)
	if s.ids != nil {
		t.Error("a key map past the retention cap was kept")
	}
	putScratch(s)
	if s.rows.buf != nil {
		t.Errorf("an arena of %d slots was kept, cap %d", scratchRetainSlots+1, scratchRetainSlots)
	}
	if len(s.ints.buf) != arenaMinSlots || s.ints.used != 0 {
		t.Errorf("small arena after put: %d slots, %d in use; want %d, 0", len(s.ints.buf), s.ints.used, arenaMinSlots)
	}
	if s.root.scr != nil || s.root.ctes != nil || s.root.parent != nil {
		t.Error("a pooled scratch still points at its last query's root scope")
	}
}

// snapshot deep-copies a result's values (strings are immutable, so the
// copy shares none of the result's mutable memory).
func snapshot(res *Result) *Result {
	out := &Result{Columns: append([]string(nil), res.Columns...)}
	for _, r := range res.Rows {
		out.Rows = append(out.Rows, append(sqldb.Row(nil), r...))
	}
	return out
}

// identical compares two results byte for byte: kinds, integer and float
// bits, strings and bools — not SQL equality.
func identical(a, b *Result) error {
	if len(a.Columns) != len(b.Columns) || len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("%d columns x %d rows, want %d x %d", len(a.Columns), len(a.Rows), len(b.Columns), len(b.Rows))
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return fmt.Errorf("column %d is %q, want %q", i, a.Columns[i], b.Columns[i])
		}
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return fmt.Errorf("row %d has %d values, want %d", i, len(a.Rows[i]), len(b.Rows[i]))
		}
		for j := range a.Rows[i] {
			x, y := a.Rows[i][j], b.Rows[i][j]
			if x.K != y.K || x.I != y.I || math.Float64bits(x.F) != math.Float64bits(y.F) || x.S != y.S || x.B != y.B {
				return fmt.Errorf("row %d column %d is %#v, want %#v", i, j, x, y)
			}
		}
	}
	return nil
}

// checkResultSurvives runs sql, keeps its Result, runs every churn
// statement on the same executor (same goroutine, so the same pooled
// scratch), and asserts the kept Result did not change and that running sql
// again gives it back.
func checkResultSurvives(t *testing.T, db *sqldb.Database, sql string, churn []string) {
	t.Helper()
	exec := New(db)
	res, err := exec.Query(sql)
	if err != nil {
		return // error parity is the parity harness's business
	}
	want := snapshot(res)
	for _, other := range churn {
		exec.Query(other) //nolint:errcheck // only its use of the scratch matters
	}
	if err := identical(res, want); err != nil {
		t.Errorf("result of %q changed after later queries on the executor: %v", sql, err)
	}
	again, err := exec.Query(sql)
	if err != nil {
		t.Fatalf("%q failed on its second run: %v", sql, err)
	}
	if err := identical(again, want); err != nil {
		t.Errorf("second run of %q differs from the first: %v", sql, err)
	}
}

// scratchChurn exercises every scratch user over the adversarial database:
// WHERE survivors, GROUP BY partition and HAVING, aggregate buffers,
// hash-join keys, chains and joined rows (all four kinds, with a residual),
// and a non-constant IN list.
var scratchChurn = []string{
	"SELECT a.I, b.S, COUNT(*), SUM(b.F) FROM T a JOIN T b ON a.I = b.I WHERE a.F > 1.0 AND b.S IS NOT NULL GROUP BY a.I, b.S HAVING COUNT(*) > 1 ORDER BY 3 DESC",
	"SELECT a.I, b.I FROM T a LEFT JOIN BOOLS b ON a.I = b.I AND b.I > 3",
	"SELECT a.I, b.I FROM BOOLS a FULL JOIN T b ON a.I = b.I WHERE b.S IN (b.M, 'v01', b.S)",
	"SELECT a.S, b.B FROM T a RIGHT JOIN BOOLS b ON a.I = b.I",
	"SELECT S, COUNT(DISTINCT I), MIN(F), MAX(M) FROM T WHERE I IN (1, 2, 3, 4, 5) GROUP BY S",
	"SELECT I FROM T WHERE F > (SELECT AVG(x.F) FROM T x JOIN BOOLS y ON x.I = y.I WHERE x.I = T.I)",
}

func TestScratchNeverReachesResult(t *testing.T) {
	db := adversarialParityDB()
	mustRun := func(db *sqldb.Database, stmts []string) {
		t.Helper()
		for _, sql := range stmts {
			if _, err := New(db).Query(sql); err != nil {
				t.Fatalf("churn statement %q: %v", sql, err)
			}
		}
	}
	mustRun(db, scratchChurn)
	for _, sql := range append(append([]string(nil), adversarialStmts...), scratchChurn...) {
		checkResultSurvives(t, db, sql, scratchChurn)
	}
	// The joins the hash-join parity tests use, over a larger random input.
	jdb := parityDB(rand.New(rand.NewSource(5)), 60, 80, 12, 0.1)
	var joins []string
	for _, kind := range joinKinds {
		joins = append(joins,
			"SELECT * FROM L "+kind+" R ON L.K = R.K",
			"SELECT L.LV, R.RV FROM L "+kind+" R ON L.K = R.K AND L.LV < R.RV - 100",
			"SELECT L.K, COUNT(*), SUM(R.RV) FROM L "+kind+" R ON L.K = R.K GROUP BY L.K ORDER BY 1")
	}
	mustRun(jdb, joins)
	for _, sql := range joins {
		checkResultSurvives(t, jdb, sql, joins)
	}
}

// TestScratchParityOverChurn: the statements that lean hardest on the
// scratch agree with the interpreter (whose own intermediates are heap
// memory).
func TestScratchParityOverChurn(t *testing.T) {
	db := adversarialParityDB()
	for _, sql := range scratchChurn {
		runBothExec(t, db, sql)
	}
}

// TestQueryConcurrentSharedExecutor has 8 goroutines run the scratch-heavy
// statements on one executor (run under -race): each must get the result a
// lone caller gets.
func TestQueryConcurrentSharedExecutor(t *testing.T) {
	db := adversarialParityDB()
	stmts := append(append([]string(nil), scratchChurn...), adversarialStmts...)
	exec := New(db)
	want := make([]*Result, len(stmts))
	for i, sql := range stmts {
		if res, err := New(db).Query(sql); err == nil {
			want[i] = snapshot(res)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i := range stmts {
					j := (i + g*11 + round) % len(stmts)
					res, err := exec.Query(stmts[j])
					if (err == nil) != (want[j] != nil) {
						t.Errorf("goroutine %d: %q: error %v, lone caller's result %v", g, stmts[j], err, want[j] != nil)
						return
					}
					if err != nil {
						continue
					}
					if err := identical(res, want[j]); err != nil {
						t.Errorf("goroutine %d: %q: %v", g, stmts[j], err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestQueryWarmAllocs pins what a warm Query allocates at workload scale
// (tables of 100-144 rows), so the next regression fails here rather than
// in a benchmark budget. What is left is what escapes or must be fresh: the
// Result and its rows, the environment, one interned key per group or join
// bucket, one child environment per aggregate per group. Joined rows are
// scratch, not a slab of their own. A TO_CHAR filter compared with
// literals formats on the stack, so its count is the same at 576 rows as
// at 144. Before the scratch: 23, 284 and 677; before joined rows moved
// into it, 117; before the TO_CHAR kernels, 150 and 582. A window core and
// a nested-loop join allocate no environment or row per row: before window
// calls and ON clauses were compiled, the window core ran on the
// interpreter (940) and the nested loop built each pair's row and
// environment on the heap (30,921; the hash join read 116).
func TestQueryWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, c := range []struct {
		name string
		db   *sqldb.Database
		sql  string
		most float64
	}{
		{"filtered scan", exprBenchDB(144), "SELECT A, B, AMT FROM T WHERE B < 24 AND AMT > 100.0", 5},
		{"group by", exprBenchDB(144), "SELECT D, COUNT(*), SUM(AMT), MAX(B) FROM T WHERE A % 3 <> 0 GROUP BY D", 26},
		{"hash join", joinBenchDB(100, 10), "SELECT COUNT(*), SUM(AMOUNT) FROM PARENTS JOIN CHILDREN ON PARENTS.ID = CHILDREN.PARENT_ID", 111},
		{"nested-loop join", joinBenchDB(100, 10), "SELECT COUNT(*), SUM(AMOUNT) FROM PARENTS JOIN CHILDREN ON PARENTS.ID < CHILDREN.PARENT_ID", 10},
		{"window", dateBenchDB(144), "SELECT D, AMT, RANK() OVER (PARTITION BY SUBSTR(D, 1, 4) ORDER BY AMT DESC) FROM SALES ORDER BY 3, 1", 13},
		{"to_char compare", dateBenchDB(144), `SELECT COUNT(*), SUM(AMT) FROM SALES WHERE TO_CHAR(D, 'YYYY"Q"Q') = '2024Q2'`, 6},
		{"to_char in", dateBenchDB(144), `SELECT COUNT(*), SUM(AMT) FROM SALES WHERE TO_CHAR(D, 'YYYY-MM') IN ('2024-01', '2024-05')`, 7},
		{"to_char compare x4", dateBenchDB(576), `SELECT COUNT(*), SUM(AMT) FROM SALES WHERE TO_CHAR(D, 'YYYY"Q"Q') = '2024Q2'`, 6},
		{"to_char in x4", dateBenchDB(576), `SELECT COUNT(*), SUM(AMT) FROM SALES WHERE TO_CHAR(D, 'YYYY-MM') IN ('2024-01', '2024-05')`, 7},
	} {
		exec := New(c.db)
		if _, err := exec.Query(c.sql); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := exec.Query(c.sql); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.most {
			t.Errorf("%s: %v allocations per warm Query, want at most %v", c.name, got, c.most)
		}
	}
}

// dateBenchDB is a sales table whose D column holds canonical stored dates
// across 2023 and 2024, the input of the quarter-bucketing filters.
func dateBenchDB(n int) *sqldb.Database {
	db := sqldb.NewDatabase("datebench")
	t := sqldb.NewTable("SALES", sqldb.Column{Name: "D"}, sqldb.Column{Name: "AMT"})
	for i := 0; i < n; i++ {
		t.MustAppend(sqldb.Str(fmt.Sprintf("%d-%02d-%02d", 2023+i%2, 1+i%12, 1+i%28)), sqldb.Int(int64(i%50)))
	}
	db.AddTable(t)
	return db
}
