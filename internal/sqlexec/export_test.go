package sqlexec

import (
	"genedit/internal/sqldb"
	"genedit/internal/sqlparse"
)

// Reference-path switches. Production executors always run cached, compiled
// plans with the hash join; the parity tests and the A/B benchmarks in this
// package select the interpreter, the nested-loop join and uncached
// execution through these setters, which exist only in test builds.

// SetCompiledExec(false) runs statements on the tree-walking interpreter,
// the oracle the compiled engine must match (rows, columns, error text).
func (e *Executor) SetCompiledExec(enabled bool) { e.noCompiled = !enabled }

// SetHashJoin(false) forces the nested-loop join, the hash join's oracle.
func (e *Executor) SetHashJoin(enabled bool) { e.noHashJoin = !enabled }

// SetStatementCaching(false) drops the plan cache, so every Query parses and
// compiles; SetStatementCaching(true) restores an empty one.
func (e *Executor) SetStatementCaching(enabled bool) {
	if !enabled {
		e.stmts = nil
	} else if e.stmts == nil {
		e.stmts = newStmtCache()
	}
}

// RunBothExec hands the interpreter-vs-compiled harness to the external
// test package (workload_parity_test.go, which cannot live in this package
// because workload imports it).
var RunBothExec = runBothExec

// CheckResultSurvives hands the scratch-lifetime check (scratch_test.go) to
// the external test package, which runs it over the workload's gold SQL.
var CheckResultSurvives = checkResultSurvives

// Fallback is one part of a compiled statement that runs on the
// interpreter instead of the compiled engine.
type Fallback struct {
	Core   bool // one select core; false means a whole statement
	Window bool // the core has a window call in its projection or ORDER BY
}

// StatementFallsBack lists the parts of sql, compiled against db, that run
// on the interpreter: whole statements and single cores, found by walking
// CTE subplans, derived-table leaves and compound arms. Subqueries inside
// expressions are not listed; the interpreter always evaluates them.
func StatementFallsBack(db *sqldb.Database, sql string) ([]Fallback, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return stmtFallbacks(compileStmt(db, stmt), nil), nil
}

func stmtFallbacks(sp *stmtPlan, out []Fallback) []Fallback {
	if sp.fallback {
		return append(out, Fallback{})
	}
	for _, c := range sp.ctes {
		out = stmtFallbacks(c.sub, out)
	}
	out = coreFallbacks(sp.core, out)
	for _, part := range sp.compound {
		out = coreFallbacks(part.core, out)
	}
	return out
}

func coreFallbacks(cp *corePlan, out []Fallback) []Fallback {
	if !cp.fallback {
		return fromFallbacks(cp.from, out)
	}
	window := false
	for _, item := range cp.src.Items {
		window = window || hasWindowCall(item.Expr)
	}
	for _, o := range cp.srcOrderBy {
		window = window || hasWindowCall(o.Expr)
	}
	return append(out, Fallback{Core: true, Window: window})
}

func fromFallbacks(fp *fromPlan, out []Fallback) []Fallback {
	switch {
	case fp.join != nil:
		return fromFallbacks(fp.join.right, fromFallbacks(fp.join.left, out))
	case fp.leaf.sub != nil:
		return stmtFallbacks(fp.leaf.sub, out)
	}
	return out
}
