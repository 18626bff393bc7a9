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
// compiles; SetStatementCaching(true) restores a default-sized one.
func (e *Executor) SetStatementCaching(enabled bool) {
	if !enabled {
		e.stmts = nil
	} else if e.stmts == nil {
		e.stmts = newStmtCache(DefaultStatementCacheSize)
	}
}

// RunBothExec hands the interpreter-vs-compiled harness to the external
// test package (workload_parity_test.go, which cannot live in this package
// because workload imports it).
var RunBothExec = runBothExec

// CheckResultSurvives hands the scratch-lifetime check (scratch_test.go) to
// the external test package, which runs it over the workload's gold SQL.
var CheckResultSurvives = checkResultSurvives

// StatementFallsBack reports whether sql, compiled against db, would run
// whole on the interpreter instead of the compiled engine.
func StatementFallsBack(db *sqldb.Database, sql string) (bool, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return false, err
	}
	return compileStmt(db, stmt).fallback, nil
}
