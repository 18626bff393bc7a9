package sqlexec

import (
	"fmt"
	"testing"

	"genedit/internal/sqldb"
)

// A/B micro-benchmarks of the engine's fast paths against the reference
// paths only test builds can select (export_test.go): hash join vs nested
// loop, cached vs uncached statements, compiled vs interpreted execution.

// joinBenchDB builds a two-table FK-join fixture: n parents, n children,
// ~n/fanout children per parent.
func joinBenchDB(n, fanout int) *sqldb.Database {
	db := sqldb.NewDatabase("joinbench")
	parents := sqldb.NewTable("PARENTS", sqldb.Column{Name: "ID"}, sqldb.Column{Name: "NAME"})
	children := sqldb.NewTable("CHILDREN", sqldb.Column{Name: "PARENT_ID"}, sqldb.Column{Name: "AMOUNT"})
	for i := 0; i < n; i++ {
		parents.MustAppend(sqldb.Int(int64(i)), sqldb.Str(fmt.Sprintf("p%04d", i)))
		children.MustAppend(sqldb.Int(int64((i*7)%(n/fanout))), sqldb.Int(int64(i%97)))
	}
	db.AddTable(parents)
	db.AddTable(children)
	return db
}

// BenchmarkHashJoin compares the nested-loop baseline against the hash-join
// fast path on an equi-join dominated aggregate at suite scale.
func BenchmarkHashJoin(b *testing.B) {
	db := joinBenchDB(600, 10)
	sql := "SELECT COUNT(*), SUM(AMOUNT) FROM PARENTS JOIN CHILDREN ON PARENTS.ID = CHILDREN.PARENT_ID"
	for _, mode := range []struct {
		name string
		hash bool
	}{{"nested", false}, {"hash", true}} {
		b.Run(mode.name, func(b *testing.B) {
			exec := New(db)
			exec.SetHashJoin(mode.hash)
			if _, err := exec.Query(sql); err != nil { // warm the plan cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Query(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStatementCache measures repeated Executor.Query of the same SQL
// (the regeneration-loop / gold-evaluation / regression-suite pattern) with
// the parsed-statement cache off and on. The fixture is parse-bound — a
// large statement over a small table — to isolate the work the cache
// eliminates; execution-bound statements see proportionally smaller wins.
func BenchmarkStatementCache(b *testing.B) {
	db := sqldb.NewDatabase("stmtbench")
	t := sqldb.NewTable("T", sqldb.Column{Name: "A"}, sqldb.Column{Name: "B"})
	for i := 0; i < 2; i++ {
		t.MustAppend(sqldb.Int(int64(i)), sqldb.Str(fmt.Sprintf("v%d", i)))
	}
	db.AddTable(t)
	sql := "SELECT A"
	for i := 0; i < 40; i++ {
		sql += fmt.Sprintf(", A*%d + CASE WHEN A > %d THEN %d ELSE -%d END AS c%d", i+1, i, i, i, i)
	}
	sql += " FROM T WHERE A >= 0"
	for i := 0; i < 20; i++ {
		sql += fmt.Sprintf(" OR B = 'v%d'", i)
	}
	for _, mode := range []struct {
		name    string
		caching bool
	}{{"uncached", false}, {"cached", true}} {
		b.Run(mode.name, func(b *testing.B) {
			exec := New(db)
			exec.SetStatementCaching(mode.caching)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Query(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// compiledBenchModes runs the same SQL on the interpreter oracle and the
// compiled engine; Query is used so the compiled mode measures the
// cached-plan serving path (parse and compile amortized away, as in the
// k=3 loop).
func compiledBenchModes(b *testing.B, db *sqldb.Database, sql string) {
	b.Helper()
	for _, mode := range []struct {
		name     string
		compiled bool
	}{{"interpreted", false}, {"compiled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			exec := engine(db, mode.compiled)
			if _, err := exec.Query(sql); err != nil { // warm the statement cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Query(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// exprBenchDB is a single table at workload width (10 columns) for
// expression-bound scans.
func exprBenchDB(n int) *sqldb.Database {
	db := sqldb.NewDatabase("exprbench")
	t := sqldb.NewTable("T",
		sqldb.Column{Name: "A"}, sqldb.Column{Name: "B"},
		sqldb.Column{Name: "C"}, sqldb.Column{Name: "D"},
		sqldb.Column{Name: "E"}, sqldb.Column{Name: "F"},
		sqldb.Column{Name: "G"}, sqldb.Column{Name: "H"},
		sqldb.Column{Name: "AMT"}, sqldb.Column{Name: "S"})
	for i := 0; i < n; i++ {
		t.MustAppend(sqldb.Int(int64(i)), sqldb.Int(int64(i%97)),
			sqldb.Float(float64(i)*0.5), sqldb.Int(int64(i%7)),
			sqldb.Int(int64(i%11)), sqldb.Int(int64(i%13)),
			sqldb.Int(int64(i%17)), sqldb.Int(int64(i%19)),
			sqldb.Float(float64(i%1000)*1.25), sqldb.Str(fmt.Sprintf("name%04d", i%200)))
	}
	db.AddTable(t)
	return db
}

// BenchmarkCompiledExpr measures an expression-bound scan: per-row ordinal
// access, pre-dispatched operators and a pre-analyzed LIKE pattern versus
// the interpreter's per-row environment allocation, name resolution and DP
// pattern matching.
func BenchmarkCompiledExpr(b *testing.B) {
	db := exprBenchDB(20000)
	sql := "SELECT A * 2 + F, CASE WHEN AMT > 50 THEN UPPER(S) ELSE S END, G % 7 + H " +
		"FROM T WHERE F + A % 13 > 3 AND S LIKE 'name%' AND AMT >= 0"
	compiledBenchModes(b, db, sql)
}

// BenchmarkScanFilter measures a selective filtered projection scan.
func BenchmarkScanFilter(b *testing.B) {
	db := exprBenchDB(50000)
	sql := "SELECT A, B, AMT FROM T WHERE B < 24 AND AMT > 100.0"
	compiledBenchModes(b, db, sql)
}

// BenchmarkAggregate measures an ungrouped multi-aggregate over the full
// table, dominated by per-row argument collection (collectAggregateArgs).
func BenchmarkAggregate(b *testing.B) {
	db := exprBenchDB(50000)
	sql := "SELECT COUNT(*), SUM(AMT), AVG(A), MIN(B), MAX(AMT) FROM T"
	compiledBenchModes(b, db, sql)
}

// BenchmarkGroupBy measures filtered hash GROUP BY aggregation.
func BenchmarkGroupBy(b *testing.B) {
	db := exprBenchDB(50000)
	sql := "SELECT D, COUNT(*), SUM(AMT), MAX(B) FROM T WHERE A % 3 <> 0 GROUP BY D"
	compiledBenchModes(b, db, sql)
}

// BenchmarkDateKernels measures the per-row date work of the paper's
// quarter-bucketing queries, kernel against oracle: parseDate over the
// stored shapes, and TO_CHAR(d, 'YYYY"Q"Q').
func BenchmarkDateKernels(b *testing.B) {
	dates := []string{"2024-05", "2023-11-30", "2024-02-29 08:15:00"}
	const format = `YYYY"Q"Q`
	var (
		parts dateParts
		text  string
	)
	for _, bench := range []struct {
		name string
		run  func(s string)
	}{
		{"parse/loose", func(s string) { parts, _ = parseDateLoose(s) }},
		{"parse/kernel", func(s string) { parts, _ = parseDate(s) }},
		{"to_char/fmt", func(s string) { text, _ = oracleToChar(s, format) }},
		{"to_char/kernel", func(s string) { text, _ = toChar(s, format) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bench.run(dates[i%len(dates)])
			}
		})
	}
	_, _ = parts, text
}
