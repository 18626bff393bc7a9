package sqlexec_test

import (
	"sort"
	"testing"

	"genedit/internal/sqldb"
	"genedit/internal/sqlexec"
	"genedit/internal/sqlparse"
)

// FuzzEngines is the differential check of the compiled plans against the
// interpreter oracle: for any SQL text over any workload database (and the
// parity tables' database), both engines return the same columns, the same
// rows in the same order, or the same error text. It is seeded with every
// gold statement of NewSuite(1) and the SQL of the parity tables; the
// committed corpus in testdata/fuzz/FuzzEngines adds shapes the seeds lack.
func FuzzEngines(f *testing.F) {
	names := make([]string, 0, len(paritySuite.Databases))
	for name := range paritySuite.Databases {
		names = append(names, name)
	}
	sort.Strings(names)
	dbs := make([]*sqldb.Database, 0, len(names)+1)
	index := map[string]int{}
	for i, name := range names {
		dbs = append(dbs, paritySuite.Databases[name])
		index[name] = i
	}
	dbs = append(dbs, sqlexec.CompiledTestDB())
	for _, c := range paritySuite.Cases {
		f.Add(index[c.DB], c.GoldSQL)
	}
	for _, sql := range sqlexec.ParityTableStmts {
		f.Add(len(dbs)-1, sql)
	}
	f.Fuzz(func(t *testing.T, db int, sql string) {
		if db < 0 || !cheap(sql) {
			return
		}
		sqlexec.RunBothExec(t, dbs[db%len(dbs)], sql)
	})
}

// cheap bounds what one fuzz input may cost: the workload's tables hold up
// to 144 rows, so a FROM clause of two tables is about 20,000 joined rows,
// and three tables in all — a join under a correlated subquery, or a
// subquery under a subquery — about 3 million row evaluations. A longer
// text or a second REPLACE (which, with an empty pattern, multiplies its
// input's length) could exhaust memory.
func cheap(sql string) bool {
	if len(sql) > 512 {
		return false
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return true // both engines return the parse error
	}
	var c leafCount
	c.stmt(stmt)
	return c.total <= 3 && c.widest <= 2 && c.replaces <= 1
}

// leafCount counts the tables a statement reads, over every FROM clause of
// the statement and its subqueries, the most in one FROM clause, and its
// REPLACE calls.
type leafCount struct{ total, widest, replaces int }

func (c *leafCount) stmt(s *sqlparse.SelectStmt) {
	for _, cte := range s.With {
		c.stmt(cte.Select)
	}
	c.core(s.Core)
	for _, part := range s.Compound {
		c.core(part.Core)
	}
	for _, o := range s.OrderBy {
		c.expr(o.Expr)
	}
	c.expr(s.Limit)
	c.expr(s.Offset)
}

func (c *leafCount) core(core *sqlparse.SelectCore) {
	c.widest = max(c.widest, c.from(core.From))
	for _, item := range core.Items {
		c.expr(item.Expr)
	}
	c.expr(core.Where)
	for _, g := range core.GroupBy {
		c.expr(g)
	}
	c.expr(core.Having)
}

func (c *leafCount) from(f sqlparse.TableExpr) int {
	switch x := f.(type) {
	case *sqlparse.TableName:
		c.total++
		return 1
	case *sqlparse.SubqueryTable:
		c.total++
		c.stmt(x.Select)
		return 1
	case *sqlparse.JoinExpr:
		c.expr(x.On)
		return c.from(x.Left) + c.from(x.Right)
	}
	return 0
}

func (c *leafCount) expr(e sqlparse.Expr) {
	sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
		switch n := x.(type) {
		case *sqlparse.SubqueryExpr:
			c.stmt(n.Select)
		case *sqlparse.ExistsExpr:
			c.stmt(n.Select)
		case *sqlparse.InExpr:
			if n.Select != nil {
				c.stmt(n.Select)
			}
		case *sqlparse.FuncCall:
			if n.Name == "REPLACE" {
				c.replaces++
			}
		}
	})
}
