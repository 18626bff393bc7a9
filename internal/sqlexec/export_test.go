package sqlexec

// Reference-path switches. Production executors always run cached, compiled
// plans with the hash join; the parity tests and the A/B benchmarks in this
// package select the nested-loop join and uncached execution through these
// setters, and the interpreter through oracle (interp_test.go), which exist
// only in test builds.

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

// SnapshotResult and IdenticalResults hand the lifetime check's deep copy
// and bitwise comparison to the external test package.
var (
	SnapshotResult   = snapshot
	IdenticalResults = identical
)

// ParityTableStmts are the SQL of TestCompiledParityCoreShapes and
// TestCompiledParityErrors, over CompiledTestDB, for FuzzEngines' seeds.
var (
	ParityTableStmts = append(append([]string(nil), compiledShapeStmts...), compiledErrorStmts...)
	CompiledTestDB   = compiledTestDB
)
