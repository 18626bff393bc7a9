// Package sqlexec executes parsed SQL statements against the in-memory
// database in sqldb. It supports the full dialect of sqlparse: CTEs, joins,
// grouped and windowed aggregation, HAVING, compound selects, correlated
// subqueries and the scalar function library the paper's workloads use.
package sqlexec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"genedit/internal/sqldb"
	"genedit/internal/sqlparse"
)

// Executor runs queries against a database. Executors are safe for
// concurrent use: the database is read-only during query evaluation, the
// statement cache is internally synchronized, and compiled plans are
// stateless. Compiled plans bind column ordinals against table layouts, so
// schemas must not change under a live executor (rows may be appended
// freely).
type Executor struct {
	db    *sqldb.Database
	stmts *stmtCache
	// noCompiled and noHashJoin select the reference paths — the
	// tree-walking interpreter and the nested-loop join — that the parity
	// tests compare the compiled engine and the hash join against. Only
	// export_test.go sets them.
	noCompiled bool
	noHashJoin bool
}

// New returns an executor over db.
func New(db *sqldb.Database) *Executor {
	return &Executor{db: db, stmts: newStmtCache()}
}

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    []sqldb.Row
}

// ExecError is a runtime (semantic) execution failure, distinct from a
// sqlparse.SyntaxError; the pipeline's self-correction operator branches on
// this distinction.
type ExecError struct{ Msg string }

func (e *ExecError) Error() string { return "execution error: " + e.Msg }

func execErrf(format string, args ...any) error {
	return &ExecError{Msg: fmt.Sprintf(format, args...)}
}

// Query parses and executes sql. Compiled plans are cached (LRU, keyed by
// the raw SQL text), so the regeneration loop, gold evaluation and
// regression suite re-execute repeated SQL without re-lexing, re-parsing or
// re-compiling it.
func (e *Executor) Query(sql string) (*Result, error) {
	var plan *stmtPlan
	if e.stmts != nil {
		plan, _ = e.stmts.get(sql)
	}
	if plan == nil {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, err
		}
		plan = compileStmt(e.db, stmt)
		if e.stmts != nil {
			e.stmts.put(sql, plan)
		}
	}
	// Intermediates that die inside this call come from a pooled scratch
	// (pool.go); the Result never references it.
	scr := getScratch()
	defer putScratch(scr)
	if e.noCompiled {
		return e.evalStmt(plan.stmt, &scr.root, nil)
	}
	return e.runStmt(plan, &scr.root)
}

// scope carries CTE visibility and the Query's scratch; scopes chain
// lexically.
type scope struct {
	parent *scope
	ctes   map[string]*namedRelation
	scr    *queryScratch
}

type namedRelation struct {
	columns []string
	rows    []sqldb.Row
}

func (s *scope) lookup(name string) *namedRelation {
	for cur := s; cur != nil; cur = cur.parent {
		if rel, ok := cur.ctes[strings.ToUpper(name)]; ok {
			return rel
		}
	}
	return nil
}

func (s *scope) child() *scope {
	return &scope{parent: s, ctes: make(map[string]*namedRelation), scr: s.scr}
}

// bindCol is one addressable column of an intermediate relation.
type bindCol struct {
	qual string // table alias/name qualifier; upper-cased
	name string // column name; original case preserved
}

// relation is an intermediate table shape during evaluation.
type relation struct {
	cols []bindCol
	rows []sqldb.Row
}

// rowEnv is the evaluation environment for one row (or one group).
type rowEnv struct {
	exec    *Executor
	sc      *scope
	cols    []bindCol
	row     sqldb.Row
	group   []sqldb.Row // non-nil in aggregate context
	outer   *rowEnv     // enclosing query's row for correlated subqueries
	windows map[*sqlparse.FuncCall][]sqldb.Value
	idx     int // this row's index into window value slices
}

func (e *Executor) evalStmt(stmt *sqlparse.SelectStmt, sc *scope, outer *rowEnv) (*Result, error) {
	if len(stmt.With) > 0 {
		sc = sc.child()
		for _, cte := range stmt.With {
			res, err := e.evalStmt(cte.Select, sc, outer)
			if err != nil {
				return nil, err
			}
			cols := res.Columns
			if len(cte.Columns) > 0 {
				if len(cte.Columns) != len(res.Columns) {
					return nil, execErrf("CTE %s declares %d columns but select returns %d",
						cte.Name, len(cte.Columns), len(res.Columns))
				}
				cols = cte.Columns
			}
			sc.ctes[strings.ToUpper(cte.Name)] = &namedRelation{columns: cols, rows: res.Rows}
		}
	}

	if len(stmt.Compound) == 0 {
		return e.evalCoreFull(stmt.Core, sc, outer, stmt.OrderBy, stmt.Limit, stmt.Offset)
	}

	res, err := e.evalCoreFull(stmt.Core, sc, outer, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	for _, part := range stmt.Compound {
		next, err := e.evalCoreFull(part.Core, sc, outer, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		res, err = combine(part.Op, res, next)
		if err != nil {
			return nil, err
		}
	}
	if err := orderResultByOutput(res, stmt.OrderBy); err != nil {
		return nil, err
	}
	return applyLimitOffset(res, stmt.Limit, stmt.Offset)
}

// evalCoreFull runs one select core including optional statement-level
// ORDER BY / LIMIT handling (passed down so ordering can reference source
// rows, aliases and aggregates).
func (e *Executor) evalCoreFull(core *sqlparse.SelectCore, sc *scope, outer *rowEnv,
	orderBy []sqlparse.OrderItem, limit, offset sqlparse.Expr) (*Result, error) {

	// The interpreter allocates its own intermediates on the heap; what it
	// shares with the compiled engine (hash join, aggregate arguments) takes
	// scratch, released here so a correlated subquery run once per outer
	// row does not accumulate it.
	mark := sc.scr.mark()
	defer sc.scr.release(mark)

	rel, err := e.evalFrom(core.From, sc, outer)
	if err != nil {
		return nil, err
	}

	// WHERE.
	if core.Where != nil {
		var kept []sqldb.Row
		for _, row := range rel.rows {
			env := &rowEnv{exec: e, sc: sc, cols: rel.cols, row: row, outer: outer}
			v, err := evalExpr(core.Where, env)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				kept = append(kept, row)
			}
		}
		rel.rows = kept
	}

	// Expand stars.
	items, err := expandStars(core.Items, rel.cols)
	if err != nil {
		return nil, err
	}

	// Aggregation detection.
	aggregated := len(core.GroupBy) > 0 || core.Having != nil
	if !aggregated {
		for _, item := range items {
			if containsAggregate(item.Expr) {
				aggregated = true
				break
			}
		}
	}
	if !aggregated {
		for _, o := range orderBy {
			if containsAggregate(o.Expr) {
				aggregated = true
				break
			}
		}
	}

	// Build per-output environments.
	var envs []*rowEnv
	if aggregated {
		groups, err := e.groupRows(core.GroupBy, rel, sc, outer)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			if g == nil {
				g = []sqldb.Row{} // empty group must still read as aggregation context
			}
			env := &rowEnv{exec: e, sc: sc, cols: rel.cols, group: g, outer: outer}
			if len(g) > 0 {
				env.row = g[0]
			} else {
				env.row = make(sqldb.Row, len(rel.cols))
			}
			if core.Having != nil {
				v, err := evalExpr(core.Having, env)
				if err != nil {
					return nil, err
				}
				if !truthy(v) {
					continue
				}
			}
			envs = append(envs, env)
		}
	} else {
		for _, row := range rel.rows {
			envs = append(envs, &rowEnv{exec: e, sc: sc, cols: rel.cols, row: row, outer: outer})
		}
	}

	// Window function precomputation across the output environments.
	winCalls := collectWindowCalls(items, orderBy)
	if len(winCalls) > 0 {
		windows := make(map[*sqlparse.FuncCall][]sqldb.Value, len(winCalls))
		for i, env := range envs {
			env.windows = windows
			env.idx = i
		}
		for _, fc := range winCalls {
			vals, err := e.evalWindow(fc, envs)
			if err != nil {
				return nil, err
			}
			windows[fc] = vals
		}
	}

	// Projection plus hidden ORDER BY keys.
	outCols := outputColumns(items)
	orderExprs, orderIdx, err := resolveOrderTargets(orderBy, items)
	if err != nil {
		return nil, err
	}
	type outRow struct {
		row  sqldb.Row
		keys sqldb.Row
	}
	var outs []outRow
	for _, env := range envs {
		row := make(sqldb.Row, len(items))
		for i, item := range items {
			v, err := evalExpr(item.Expr, env)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		keys := make(sqldb.Row, len(orderBy))
		for i := range orderBy {
			if orderIdx[i] >= 0 {
				keys[i] = row[orderIdx[i]]
				continue
			}
			v, err := evalExpr(orderExprs[i], env)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
		outs = append(outs, outRow{row: row, keys: keys})
	}

	if core.Distinct {
		seen := make(map[string]bool)
		var dedup []outRow
		for _, o := range outs {
			k := rowKey(o.row)
			if !seen[k] {
				seen[k] = true
				dedup = append(dedup, o)
			}
		}
		outs = dedup
	}

	if len(orderBy) > 0 {
		sort.SliceStable(outs, func(i, j int) bool {
			return compareOrderKeys(outs[i].keys, outs[j].keys, orderBy) < 0
		})
	}

	res := &Result{Columns: outCols}
	for _, o := range outs {
		res.Rows = append(res.Rows, o.row)
	}
	return applyLimitOffset(res, limit, offset)
}

// applyLimitOffset folds LIMIT/OFFSET to constants (staticInt, shared with
// the compiled path) and applies them. Non-constant expressions are
// rejected with an ExecError rather than evaluated through a throwaway row
// environment as earlier revisions did.
func applyLimitOffset(res *Result, limit, offset sqlparse.Expr) (*Result, error) {
	return applyFolded(res, foldLimit(limit), foldLimit(offset))
}

// groupRows partitions the relation by the GROUP BY expressions, preserving
// first-occurrence order. With no GROUP BY it forms a single group (possibly
// empty) for whole-table aggregation.
func (e *Executor) groupRows(exprs []sqlparse.Expr, rel relation, sc *scope, outer *rowEnv) ([][]sqldb.Row, error) {
	if len(exprs) == 0 {
		return [][]sqldb.Row{rel.rows}, nil
	}
	var order []string
	groups := make(map[string][]sqldb.Row)
	var kb []byte
	for _, row := range rel.rows {
		env := &rowEnv{exec: e, sc: sc, cols: rel.cols, row: row, outer: outer}
		kb = kb[:0]
		for _, ge := range exprs {
			v, err := evalExpr(ge, env)
			if err != nil {
				return nil, err
			}
			kb = sqldb.AppendValueKey(kb, v)
		}
		key := string(kb)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], row)
	}
	out := make([][]sqldb.Row, 0, len(order))
	for _, key := range order {
		out = append(out, groups[key])
	}
	return out, nil
}

// expandStars replaces * and table.* items with explicit column references.
func expandStars(items []sqlparse.SelectItem, cols []bindCol) ([]sqlparse.SelectItem, error) {
	var out []sqlparse.SelectItem
	for _, item := range items {
		if !item.Star {
			out = append(out, item)
			continue
		}
		matched := false
		for _, c := range cols {
			if item.Table != "" && !strings.EqualFold(item.Table, c.qual) {
				continue
			}
			matched = true
			out = append(out, sqlparse.SelectItem{
				Expr: &sqlparse.ColumnRef{Table: c.qual, Name: c.name},
			})
		}
		if item.Table != "" && !matched {
			return nil, execErrf("unknown table %q in %s.*", item.Table, item.Table)
		}
		if !matched {
			return nil, execErrf("SELECT * with no FROM clause")
		}
	}
	return out, nil
}

func outputColumns(items []sqlparse.SelectItem) []string {
	out := make([]string, len(items))
	for i, item := range items {
		switch {
		case item.Alias != "":
			out[i] = item.Alias
		default:
			if cr, ok := item.Expr.(*sqlparse.ColumnRef); ok {
				out[i] = cr.Name
			} else {
				out[i] = sqlparse.PrintExpr(item.Expr)
			}
		}
	}
	return out
}

// resolveOrderTargets maps each ORDER BY item either to an output column
// index (alias or 1-based position) or to an expression evaluated in the row
// environment.
func resolveOrderTargets(orderBy []sqlparse.OrderItem, items []sqlparse.SelectItem) ([]sqlparse.Expr, []int, error) {
	exprs := make([]sqlparse.Expr, len(orderBy))
	idx := make([]int, len(orderBy))
	for i, o := range orderBy {
		idx[i] = -1
		exprs[i] = o.Expr
		switch x := o.Expr.(type) {
		case *sqlparse.NumberLit:
			n, err := strconv.Atoi(x.Text)
			if err != nil || n < 1 || n > len(items) {
				return nil, nil, execErrf("ORDER BY position %s out of range", x.Text)
			}
			idx[i] = n - 1
		case *sqlparse.ColumnRef:
			if x.Table == "" {
				for j, item := range items {
					if strings.EqualFold(item.Alias, x.Name) {
						idx[i] = j
						break
					}
				}
			}
		}
	}
	return exprs, idx, nil
}

// compareOrderKeys orders two hidden ORDER BY key rows under the ORDER BY
// items (descending items invert), returning 0 when every key compares
// equal; callers layer their own stability rule on top. Shared by the
// interpreter's stable sort and the compiled one, so ordering semantics
// cannot diverge between paths.
func compareOrderKeys(a, b sqldb.Row, orderBy []sqlparse.OrderItem) int {
	for k, item := range orderBy {
		c := sqldb.CompareForSort(a[k], b[k])
		if c == 0 {
			continue
		}
		if item.Desc {
			return -c
		}
		return c
	}
	return 0
}

// rowKey is the hashing key for DISTINCT and compound set operations;
// length-prefixed components cannot alias across column boundaries however
// the values are spelled (see sqldb.CompositeKey).
func rowKey(row sqldb.Row) string {
	return sqldb.CompositeKey(row)
}

// combine applies a compound set operation. The hashing arms share one
// pooled scratch buffer for composite keys (only the interned map-key
// strings escape).
func combine(op sqlparse.CompoundOp, a, b *Result) (*Result, error) {
	if len(a.Columns) != len(b.Columns) {
		return nil, execErrf("compound select arms have %d and %d columns", len(a.Columns), len(b.Columns))
	}
	if op == sqlparse.UnionAllOp {
		return &Result{Columns: a.Columns, Rows: append(append([]sqldb.Row{}, a.Rows...), b.Rows...)}, nil
	}
	kbp := getKeyBuf()
	kb := *kbp
	key := func(r sqldb.Row) string {
		kb = sqldb.AppendCompositeKey(kb[:0], r)
		return string(kb)
	}
	defer func() {
		*kbp = kb
		putKeyBuf(kbp)
	}()
	switch op {
	case sqlparse.UnionOp:
		seen := make(map[string]bool)
		out := &Result{Columns: a.Columns}
		for _, rows := range [][]sqldb.Row{a.Rows, b.Rows} {
			for _, r := range rows {
				k := key(r)
				if !seen[k] {
					seen[k] = true
					out.Rows = append(out.Rows, r)
				}
			}
		}
		return out, nil
	case sqlparse.ExceptOp:
		drop := make(map[string]bool)
		for _, r := range b.Rows {
			drop[key(r)] = true
		}
		seen := make(map[string]bool)
		out := &Result{Columns: a.Columns}
		for _, r := range a.Rows {
			k := key(r)
			if !drop[k] && !seen[k] {
				seen[k] = true
				out.Rows = append(out.Rows, r)
			}
		}
		return out, nil
	case sqlparse.IntersectOp:
		keep := make(map[string]bool)
		for _, r := range b.Rows {
			keep[key(r)] = true
		}
		seen := make(map[string]bool)
		out := &Result{Columns: a.Columns}
		for _, r := range a.Rows {
			k := key(r)
			if keep[k] && !seen[k] {
				seen[k] = true
				out.Rows = append(out.Rows, r)
			}
		}
		return out, nil
	}
	return nil, execErrf("unsupported compound operator")
}

// orderResultByOutput sorts a compound result; ORDER BY may reference output
// column names or 1-based positions only.
func orderResultByOutput(res *Result, orderBy []sqlparse.OrderItem) error {
	if len(orderBy) == 0 {
		return nil
	}
	idx := make([]int, len(orderBy))
	for i, o := range orderBy {
		idx[i] = -1
		switch x := o.Expr.(type) {
		case *sqlparse.NumberLit:
			n, err := strconv.Atoi(x.Text)
			if err != nil || n < 1 || n > len(res.Columns) {
				return execErrf("ORDER BY position %s out of range", x.Text)
			}
			idx[i] = n - 1
		case *sqlparse.ColumnRef:
			for j, c := range res.Columns {
				if strings.EqualFold(c, x.Name) {
					idx[i] = j
					break
				}
			}
		}
		if idx[i] < 0 {
			return execErrf("compound ORDER BY must reference output columns")
		}
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for k, item := range orderBy {
			c := sqldb.CompareForSort(res.Rows[a][idx[k]], res.Rows[b][idx[k]])
			if c == 0 {
				continue
			}
			if item.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}

// evalFrom materializes the FROM clause into a relation.
func (e *Executor) evalFrom(from sqlparse.TableExpr, sc *scope, outer *rowEnv) (relation, error) {
	if from == nil {
		return relation{rows: []sqldb.Row{{}}}, nil
	}
	switch x := from.(type) {
	case *sqlparse.TableName:
		qual := x.Alias
		if qual == "" {
			qual = x.Name
		}
		if cte := sc.lookup(x.Name); cte != nil {
			cols := make([]bindCol, len(cte.columns))
			for i, c := range cte.columns {
				cols[i] = bindCol{qual: strings.ToUpper(qual), name: c}
			}
			return relation{cols: cols, rows: cte.rows}, nil
		}
		tbl := e.db.Table(x.Name)
		if tbl == nil {
			return relation{}, execErrf("unknown table %q", x.Name)
		}
		cols := make([]bindCol, len(tbl.Columns))
		for i, c := range tbl.Columns {
			cols[i] = bindCol{qual: strings.ToUpper(qual), name: c.Name}
		}
		return relation{cols: cols, rows: tbl.Rows}, nil

	case *sqlparse.SubqueryTable:
		res, err := e.evalStmt(x.Select, sc, outer)
		if err != nil {
			return relation{}, err
		}
		qual := strings.ToUpper(x.Alias)
		cols := make([]bindCol, len(res.Columns))
		for i, c := range res.Columns {
			cols[i] = bindCol{qual: qual, name: c}
		}
		return relation{cols: cols, rows: res.Rows}, nil

	case *sqlparse.JoinExpr:
		return e.evalJoin(x, sc, outer)
	}
	return relation{}, execErrf("unsupported FROM clause")
}

func (e *Executor) evalJoin(j *sqlparse.JoinExpr, sc *scope, outer *rowEnv) (relation, error) {
	left, err := e.evalFrom(j.Left, sc, outer)
	if err != nil {
		return relation{}, err
	}
	right, err := e.evalFrom(j.Right, sc, outer)
	if err != nil {
		return relation{}, err
	}
	cols := append(append([]bindCol{}, left.cols...), right.cols...)
	return e.joinRelations(j, left, right, cols, sc, outer)
}

// joinRelations joins two already-materialized inputs; the compiled planner
// calls it directly on the inputs runFrom materialized.
func (e *Executor) joinRelations(j *sqlparse.JoinExpr, left, right relation, cols []bindCol,
	sc *scope, outer *rowEnv) (relation, error) {

	// Hash fast path for equality conjuncts; falls back to the nested loop
	// when no sound hash plan exists (see hashjoin.go).
	if !e.noHashJoin && j.On != nil && len(left.rows) > 0 && len(right.rows) > 0 {
		if conds, residual := analyzeJoinOn(j.On, left.cols, right.cols); len(conds) > 0 {
			out, handled, err := e.hashJoin(j, left, right, cols, conds, residual, sc, outer)
			if handled {
				return out, err
			}
		}
	}

	out := relation{cols: cols}

	matchRow := func(lr, rr sqldb.Row) (bool, error) {
		if j.On == nil {
			return true, nil
		}
		combined := append(append(sqldb.Row{}, lr...), rr...)
		env := &rowEnv{exec: e, sc: sc, cols: cols, row: combined, outer: outer}
		v, err := evalExpr(j.On, env)
		if err != nil {
			return false, err
		}
		return truthy(v), nil
	}

	rightMatched := make([]bool, len(right.rows))
	for _, lr := range left.rows {
		leftMatched := false
		for ri, rr := range right.rows {
			ok, err := matchRow(lr, rr)
			if err != nil {
				return relation{}, err
			}
			if !ok {
				continue
			}
			leftMatched = true
			rightMatched[ri] = true
			out.rows = append(out.rows, append(append(sqldb.Row{}, lr...), rr...))
		}
		if !leftMatched && (j.Kind == sqlparse.LeftJoin || j.Kind == sqlparse.FullJoin) {
			row := append(append(sqldb.Row{}, lr...), make(sqldb.Row, len(right.cols))...)
			out.rows = append(out.rows, row)
		}
	}
	if j.Kind == sqlparse.RightJoin || j.Kind == sqlparse.FullJoin {
		for ri, rr := range right.rows {
			if rightMatched[ri] {
				continue
			}
			row := append(make(sqldb.Row, len(left.cols)), rr...)
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}
