package sqlexec_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"genedit/internal/sqldb"
	"genedit/internal/sqlexec"
	"genedit/internal/workload"
)

// Randomized interpreter-vs-compiled parity over the real workload
// databases (seeded, deterministic), in the style of join_parity_test.go:
// every generated statement — including deliberately error-prone ones —
// must produce identical columns, rows and error text on the interpreter
// and the compiled engine. The suite's gold SQL is replayed the same way,
// so the EX tables cannot drift between the oracle and what serving runs.

var paritySuite = workload.NewSuite(1)

// TestWorkloadGoldParity replays every gold statement of the eval suite on
// both engines.
func TestWorkloadGoldParity(t *testing.T) {
	for _, c := range paritySuite.Cases {
		sqlexec.RunBothExec(t, paritySuite.Databases[c.DB], c.GoldSQL)
	}
}

// TestGoldResultsSurviveLaterQueries runs the scratch-lifetime check over
// every gold statement: its Result must be unchanged after the database's
// next gold statements ran on the same executor.
func TestGoldResultsSurviveLaterQueries(t *testing.T) {
	byDB := map[string][]string{}
	for _, c := range paritySuite.Cases {
		byDB[c.DB] = append(byDB[c.DB], c.GoldSQL)
	}
	for db, stmts := range byDB {
		for i, sql := range stmts {
			churn := []string{stmts[(i+1)%len(stmts)], stmts[(i+2)%len(stmts)], stmts[(i+3)%len(stmts)]}
			sqlexec.CheckResultSurvives(t, paritySuite.Databases[db], sql, churn)
		}
	}
}

// TestWorkloadStatementsCompile pins where serving runs the interpreter.
// Across every gold statement and every knowledge-set source query of the
// suite — CTEs, derived tables and compound arms included — the only parts
// that fall back are select cores with a window call in their projection
// or ORDER BY; no whole statement falls back. (Subqueries inside
// expressions always run on the interpreter and are not counted.)
func TestWorkloadStatementsCompile(t *testing.T) {
	stmts, cores := 0, 0
	check := func(db, sql string) {
		t.Helper()
		fbs, err := sqlexec.StatementFallsBack(paritySuite.Databases[db], sql)
		if err != nil {
			t.Fatalf("%s: %q does not parse: %v", db, sql, err)
		}
		for _, fb := range fbs {
			switch {
			case !fb.Core:
				t.Errorf("%s: %q falls back to the interpreter as a whole", db, sql)
			case !fb.Window:
				t.Errorf("%s: %q has a core without a window call that falls back", db, sql)
			}
		}
		stmts++
		cores += len(fbs)
	}
	for _, c := range paritySuite.Cases {
		check(c.DB, c.GoldSQL)
	}
	gold := cores
	for db := range paritySuite.Databases {
		kset, err := paritySuite.BuildKnowledge(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range kset.Examples() {
			if ex.SourceSQL != "" {
				check(db, ex.SourceSQL)
			}
		}
	}
	t.Logf("%d statements: %d window cores fall back, %d of them in the %d gold statements",
		stmts, cores, gold, len(paritySuite.Cases))
}

// sqlGen generates random SELECTs against one database's schema. The
// generator leans toward valid queries but deliberately produces a share of
// semantically failing ones (bad casts, arithmetic on text, unknown
// columns) so error parity is fuzzed too.
type sqlGen struct {
	r  *rand.Rand
	db *sqldb.Database
}

func (g *sqlGen) table() *sqldb.Table {
	tables := g.db.Tables()
	return tables[g.r.Intn(len(tables))]
}

func (g *sqlGen) column(t *sqldb.Table) string {
	return t.Columns[g.r.Intn(len(t.Columns))].Name
}

func (g *sqlGen) literal() string {
	switch g.r.Intn(4) {
	case 0:
		return fmt.Sprint(g.r.Intn(200))
	case 1:
		return fmt.Sprintf("%.1f", g.r.Float64()*100)
	case 2:
		return "'v" + fmt.Sprint(g.r.Intn(20)) + "'"
	default:
		return "NULL"
	}
}

// scalar returns a random scalar expression over t's columns; depth bounds
// recursion.
func (g *sqlGen) scalar(t *sqldb.Table, qual string, depth int) string {
	col := func() string {
		c := g.column(t)
		if qual != "" {
			return qual + "." + c
		}
		return c
	}
	if depth <= 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(2) == 0 {
			return col()
		}
		return g.literal()
	}
	switch g.r.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s %s %s)", g.scalar(t, qual, depth-1),
			[]string{"+", "-", "*", "/", "%"}[g.r.Intn(5)], g.scalar(t, qual, depth-1))
	case 1:
		return fmt.Sprintf("COALESCE(%s, %s)", col(), g.literal())
	case 2:
		return fmt.Sprintf("UPPER(%s)", col())
	case 3:
		return fmt.Sprintf("LENGTH(%s)", col())
	case 4:
		return fmt.Sprintf("CASE WHEN %s THEN %s ELSE %s END",
			g.predicate(t, qual, depth-1), g.scalar(t, qual, depth-1), g.literal())
	case 5:
		return fmt.Sprintf("CAST(%s AS %s)", col(), []string{"INTEGER", "FLOAT", "TEXT"}[g.r.Intn(3)])
	case 6:
		return fmt.Sprintf("(%s || '-')", col())
	default:
		return fmt.Sprintf("ABS(%s)", g.scalar(t, qual, depth-1))
	}
}

func (g *sqlGen) predicate(t *sqldb.Table, qual string, depth int) string {
	col := func() string {
		c := g.column(t)
		if qual != "" {
			return qual + "." + c
		}
		return c
	}
	base := func() string {
		switch g.r.Intn(6) {
		case 0:
			return fmt.Sprintf("%s %s %s", col(),
				[]string{"=", "<>", "<", "<=", ">", ">="}[g.r.Intn(6)], g.literal())
		case 1:
			return fmt.Sprintf("%s IS %sNULL", col(), []string{"", "NOT "}[g.r.Intn(2)])
		case 2:
			return fmt.Sprintf("%s IN (%s, %s, %s)", col(), g.literal(), g.literal(), g.literal())
		case 3:
			return fmt.Sprintf("%s BETWEEN %s AND %s", col(), fmt.Sprint(g.r.Intn(50)), fmt.Sprint(50+g.r.Intn(100)))
		case 4:
			return fmt.Sprintf("%s LIKE '%%%d%%'", col(), g.r.Intn(10))
		default:
			return fmt.Sprintf("%s %s %s", g.scalar(t, qual, 1),
				[]string{"=", "<", ">"}[g.r.Intn(3)], g.scalar(t, qual, 1))
		}
	}
	if depth <= 0 || g.r.Intn(2) == 0 {
		return base()
	}
	op := []string{"AND", "OR"}[g.r.Intn(2)]
	return fmt.Sprintf("(%s %s %s)", base(), op, g.predicate(t, qual, depth-1))
}

// statement builds one random SELECT; shape is chosen among scans,
// aggregates, joins, DISTINCT, compound selects and subquery filters.
func (g *sqlGen) statement() string {
	t := g.table()
	var sb strings.Builder
	switch g.r.Intn(10) {
	case 0, 1: // plain scan with expressions
		sb.WriteString("SELECT ")
		n := 1 + g.r.Intn(3)
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.scalar(t, "", 2))
		}
		fmt.Fprintf(&sb, " FROM %s", t.Name)
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(&sb, " WHERE %s", g.predicate(t, "", 2))
		}
	case 2, 3: // aggregate / group by / having
		c1, c2 := g.column(t), g.column(t)
		agg := []string{"COUNT(*)", "SUM(" + c2 + ")", "AVG(" + c2 + ")", "MIN(" + c2 + ")", "MAX(" + c2 + ")",
			"COUNT(DISTINCT " + c2 + ")"}[g.r.Intn(6)]
		fmt.Fprintf(&sb, "SELECT %s, %s AS A FROM %s", c1, agg, t.Name)
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(&sb, " WHERE %s", g.predicate(t, "", 1))
		}
		fmt.Fprintf(&sb, " GROUP BY %s", c1)
		if g.r.Intn(3) == 0 {
			sb.WriteString(" HAVING COUNT(*) >= 1")
		}
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(&sb, " ORDER BY A DESC, %s", c1)
			if g.r.Intn(2) == 0 {
				fmt.Fprintf(&sb, " LIMIT %d", 1+g.r.Intn(10))
			}
		}
	case 4, 5: // join with a single-side WHERE over every join kind
		t2 := g.table()
		kind := []string{"JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"}[g.r.Intn(4)]
		on := fmt.Sprintf("a.%s = b.%s", g.column(t), g.column(t2))
		if g.r.Intn(4) == 0 {
			// Error-prone ON expressions: arithmetic or CAST over arbitrary
			// columns may fail per-row, on rows the WHERE would later drop,
			// and must surface identically on both engines.
			on = []string{
				fmt.Sprintf("a.%s + 0 = b.%s", g.column(t), g.column(t2)),
				fmt.Sprintf("CAST(a.%s AS INTEGER) = b.%s", g.column(t), g.column(t2)),
			}[g.r.Intn(2)]
		}
		fmt.Fprintf(&sb, "SELECT a.%s, b.%s FROM %s a %s %s b ON %s",
			g.column(t), g.column(t2), t.Name, kind, t2.Name, on)
		if g.r.Intn(2) == 0 {
			side := []struct {
				q string
				t *sqldb.Table
			}{{"a", t}, {"b", t2}}[g.r.Intn(2)]
			fmt.Fprintf(&sb, " WHERE %s", g.predicate(side.t, side.q, 1))
		}
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(&sb, " ORDER BY 1, 2 LIMIT %d", 1+g.r.Intn(20))
		}
	case 6: // DISTINCT + ORDER BY + LIMIT/OFFSET
		fmt.Fprintf(&sb, "SELECT DISTINCT %s FROM %s ORDER BY 1", g.column(t), t.Name)
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(&sb, " LIMIT %d OFFSET %d", g.r.Intn(8), g.r.Intn(4))
		}
	case 7: // compound select
		t2 := g.table()
		fmt.Fprintf(&sb, "SELECT %s FROM %s %s SELECT %s FROM %s",
			g.column(t), t.Name,
			[]string{"UNION", "UNION ALL", "EXCEPT", "INTERSECT"}[g.r.Intn(4)],
			g.column(t2), t2.Name)
	case 8: // scalar subquery / IN subquery
		t2 := g.table()
		c2 := g.column(t2)
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(&sb, "SELECT %s FROM %s WHERE %s IN (SELECT %s FROM %s)",
				g.column(t), t.Name, g.column(t), c2, t2.Name)
		} else {
			fmt.Fprintf(&sb, "SELECT %s, (SELECT MAX(%s) FROM %s) FROM %s",
				g.column(t), c2, t2.Name, t.Name)
		}
	default: // CTE feeding a scan
		c1, c2 := g.column(t), g.column(t)
		fmt.Fprintf(&sb, "WITH C AS (SELECT %s AS X, %s AS Y FROM %s WHERE %s) SELECT X, Y FROM C ORDER BY X, Y LIMIT %d",
			c1, c2, t.Name, g.predicate(t, "", 1), 1+g.r.Intn(12))
	}
	return sb.String()
}

// TestRandomizedCompiledParity fuzzes generated SELECTs over every workload
// database with a fixed seed. Failures print the offending statement, so a
// divergence is immediately reproducible.
func TestRandomizedCompiledParity(t *testing.T) {
	names := make([]string, 0, len(paritySuite.Databases))
	for name := range paritySuite.Databases {
		names = append(names, name)
	}
	sort.Strings(names)
	const perDB = 150
	for _, name := range names {
		db := paritySuite.Databases[name]
		g := &sqlGen{r: rand.New(rand.NewSource(int64(len(name)) * 1009)), db: db}
		for i := 0; i < perDB; i++ {
			sqlexec.RunBothExec(t, db, g.statement())
		}
	}
}
