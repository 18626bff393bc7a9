package sqlexec

import (
	"sort"
	"strings"

	"genedit/internal/sqldb"
	"genedit/internal/sqlparse"
)

// The tree-walking interpreter: the engine the compiled plans were derived
// from, kept as the oracle runBothExec (and through it the workload parity
// tests and FuzzEngines) holds them to — columns, rows in order, and error
// text. It walks the AST per row, resolves every column by name through the
// chain of enclosing rows, and joins by the plain nested loop. It shares
// the value helpers (applyUnary, applyBinary, applyScalarFunc,
// finishAggregate, likeMatch, truthy) and the clause helpers (expandStars,
// resolveOrderTargets, combine, staticInt) with the plans, so a parity test
// checks the order in which values are computed, not their arithmetic.

// oracle runs statements on the interpreter; its Query matches
// Executor.Query's signature.
type oracle struct{ e *Executor }

func (o oracle) Query(sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	scr := getScratch()
	defer putScratch(scr)
	return o.e.evalStmt(stmt, &scr.root, nil)
}

// engine returns the compiled executor over db, or the oracle.
func engine(db *sqldb.Database, compiled bool) interface {
	Query(sql string) (*Result, error)
} {
	if compiled {
		return New(db)
	}
	return oracle{New(db)}
}

// interpEnv is the interpreter's environment for one row (or one group).
type interpEnv struct {
	exec    *Executor
	sc      *scope
	cols    []bindCol
	row     sqldb.Row
	group   []sqldb.Row // non-nil in aggregate context
	outer   *interpEnv  // enclosing query's row for correlated subqueries
	windows map[*sqlparse.FuncCall][]sqldb.Value
	idx     int // this row's index into window value slices
}

func (e *Executor) evalStmt(stmt *sqlparse.SelectStmt, sc *scope, outer *interpEnv) (*Result, error) {
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
func (e *Executor) evalCoreFull(core *sqlparse.SelectCore, sc *scope, outer *interpEnv,
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
			env := &interpEnv{exec: e, sc: sc, cols: rel.cols, row: row, outer: outer}
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
	var envs []*interpEnv
	if aggregated {
		groups, err := e.groupRows(core.GroupBy, rel, sc, outer)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			if g == nil {
				g = []sqldb.Row{} // empty group must still read as aggregation context
			}
			env := &interpEnv{exec: e, sc: sc, cols: rel.cols, group: g, outer: outer}
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
			envs = append(envs, &interpEnv{exec: e, sc: sc, cols: rel.cols, row: row, outer: outer})
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
func (e *Executor) groupRows(exprs []sqlparse.Expr, rel relation, sc *scope, outer *interpEnv) ([][]sqldb.Row, error) {
	if len(exprs) == 0 {
		return [][]sqldb.Row{rel.rows}, nil
	}
	var order []string
	groups := make(map[string][]sqldb.Row)
	var kb []byte
	for _, row := range rel.rows {
		env := &interpEnv{exec: e, sc: sc, cols: rel.cols, row: row, outer: outer}
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

// rowKey is the hashing key for DISTINCT and compound set operations;
// length-prefixed components cannot alias across column boundaries however
// the values are spelled (see sqldb.CompositeKey).
func rowKey(row sqldb.Row) string {
	return sqldb.CompositeKey(row)
}

// evalFrom materializes the FROM clause into a relation.
func (e *Executor) evalFrom(from sqlparse.TableExpr, sc *scope, outer *interpEnv) (relation, error) {
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

func (e *Executor) evalJoin(j *sqlparse.JoinExpr, sc *scope, outer *interpEnv) (relation, error) {
	left, err := e.evalFrom(j.Left, sc, outer)
	if err != nil {
		return relation{}, err
	}
	right, err := e.evalFrom(j.Right, sc, outer)
	if err != nil {
		return relation{}, err
	}
	cols := append(append([]bindCol{}, left.cols...), right.cols...)
	out := relation{cols: cols}

	matchRow := func(lr, rr sqldb.Row) (bool, error) {
		if j.On == nil {
			return true, nil
		}
		combined := append(append(sqldb.Row{}, lr...), rr...)
		env := &interpEnv{exec: e, sc: sc, cols: cols, row: combined, outer: outer}
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

// evalExpr evaluates an expression in a row environment, following SQL
// three-valued logic: comparisons and arithmetic with NULL yield NULL.
func evalExpr(e sqlparse.Expr, env *interpEnv) (sqldb.Value, error) {
	switch x := e.(type) {
	case *sqlparse.NumberLit:
		return parseNumber(x.Text)
	case *sqlparse.StringLit:
		return sqldb.Str(x.Val), nil
	case *sqlparse.NullLit:
		return sqldb.Null(), nil
	case *sqlparse.BoolLit:
		return sqldb.Bool(x.Val), nil
	case *sqlparse.ColumnRef:
		return resolveColumn(x, env)
	case *sqlparse.Unary:
		return evalUnary(x, env)
	case *sqlparse.Binary:
		return evalBinary(x, env)
	case *sqlparse.FuncCall:
		return evalFuncCall(x, env)
	case *sqlparse.CaseExpr:
		return evalCase(x, env)
	case *sqlparse.CastExpr:
		v, err := evalExpr(x.X, env)
		if err != nil {
			return sqldb.Null(), err
		}
		cv, err := sqldb.Cast(v, x.Type)
		if err != nil {
			return sqldb.Null(), &ExecError{Msg: err.Error()}
		}
		return cv, nil
	case *sqlparse.InExpr:
		return evalIn(x, env)
	case *sqlparse.BetweenExpr:
		return evalBetween(x, env)
	case *sqlparse.LikeExpr:
		return evalLike(x, env)
	case *sqlparse.IsNullExpr:
		v, err := evalExpr(x.X, env)
		if err != nil {
			return sqldb.Null(), err
		}
		return sqldb.Bool(v.IsNull() != x.Not), nil
	case *sqlparse.ExistsExpr:
		res, err := env.exec.evalStmt(x.Select, env.sc, env)
		if err != nil {
			return sqldb.Null(), err
		}
		return sqldb.Bool((len(res.Rows) > 0) != x.Not), nil
	case *sqlparse.SubqueryExpr:
		return evalScalarSubquery(x.Select, env)
	}
	return sqldb.Null(), execErrf("unsupported expression %T", e)
}

// resolveColumn finds a column binding, searching the current environment
// then enclosing query environments (correlation).
func resolveColumn(cr *sqlparse.ColumnRef, env *interpEnv) (sqldb.Value, error) {
	for cur := env; cur != nil; cur = cur.outer {
		for i, c := range cur.cols {
			if cr.Table != "" && !strings.EqualFold(cr.Table, c.qual) {
				continue
			}
			if strings.EqualFold(cr.Name, c.name) {
				if i < len(cur.row) {
					return cur.row[i], nil
				}
				return sqldb.Null(), nil
			}
		}
	}
	name := cr.Name
	if cr.Table != "" {
		name = cr.Table + "." + name
	}
	return sqldb.Null(), execErrf("unknown column %q", name)
}

func evalUnary(u *sqlparse.Unary, env *interpEnv) (sqldb.Value, error) {
	v, err := evalExpr(u.X, env)
	if err != nil {
		return sqldb.Null(), err
	}
	return applyUnary(u.Op, v)
}

func evalBinary(b *sqlparse.Binary, env *interpEnv) (sqldb.Value, error) {
	// AND/OR use three-valued logic with short-circuiting.
	switch b.Op {
	case "AND":
		l, err := evalExpr(b.L, env)
		if err != nil {
			return sqldb.Null(), err
		}
		if !l.IsNull() && !truthy(l) {
			return sqldb.Bool(false), nil
		}
		r, err := evalExpr(b.R, env)
		if err != nil {
			return sqldb.Null(), err
		}
		if !r.IsNull() && !truthy(r) {
			return sqldb.Bool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return sqldb.Null(), nil
		}
		return sqldb.Bool(true), nil
	case "OR":
		l, err := evalExpr(b.L, env)
		if err != nil {
			return sqldb.Null(), err
		}
		if !l.IsNull() && truthy(l) {
			return sqldb.Bool(true), nil
		}
		r, err := evalExpr(b.R, env)
		if err != nil {
			return sqldb.Null(), err
		}
		if !r.IsNull() && truthy(r) {
			return sqldb.Bool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return sqldb.Null(), nil
		}
		return sqldb.Bool(false), nil
	}

	l, err := evalExpr(b.L, env)
	if err != nil {
		return sqldb.Null(), err
	}
	r, err := evalExpr(b.R, env)
	if err != nil {
		return sqldb.Null(), err
	}
	return applyBinary(b.Op, l, r)
}

func evalCase(ce *sqlparse.CaseExpr, env *interpEnv) (sqldb.Value, error) {
	if ce.Operand != nil {
		op, err := evalExpr(ce.Operand, env)
		if err != nil {
			return sqldb.Null(), err
		}
		for _, w := range ce.Whens {
			cv, err := evalExpr(w.Cond, env)
			if err != nil {
				return sqldb.Null(), err
			}
			if !op.IsNull() && !cv.IsNull() && op.Equal(cv) {
				return evalExpr(w.Then, env)
			}
		}
	} else {
		for _, w := range ce.Whens {
			cv, err := evalExpr(w.Cond, env)
			if err != nil {
				return sqldb.Null(), err
			}
			if truthy(cv) {
				return evalExpr(w.Then, env)
			}
		}
	}
	if ce.Else != nil {
		return evalExpr(ce.Else, env)
	}
	return sqldb.Null(), nil
}

func evalIn(in *sqlparse.InExpr, env *interpEnv) (sqldb.Value, error) {
	x, err := evalExpr(in.X, env)
	if err != nil {
		return sqldb.Null(), err
	}
	if x.IsNull() {
		return sqldb.Null(), nil
	}
	var candidates []sqldb.Value
	if in.Select != nil {
		res, err := env.exec.evalStmt(in.Select, env.sc, env)
		if err != nil {
			return sqldb.Null(), err
		}
		if len(res.Columns) != 1 {
			return sqldb.Null(), execErrf("IN subquery must return one column, got %d", len(res.Columns))
		}
		for _, r := range res.Rows {
			candidates = append(candidates, r[0])
		}
	} else {
		for _, item := range in.List {
			v, err := evalExpr(item, env)
			if err != nil {
				return sqldb.Null(), err
			}
			candidates = append(candidates, v)
		}
	}
	sawNull := false
	for _, c := range candidates {
		if c.IsNull() {
			sawNull = true
			continue
		}
		if x.Equal(c) {
			return sqldb.Bool(!in.Not), nil
		}
	}
	if sawNull {
		return sqldb.Null(), nil
	}
	return sqldb.Bool(in.Not), nil
}

func evalBetween(b *sqlparse.BetweenExpr, env *interpEnv) (sqldb.Value, error) {
	x, err := evalExpr(b.X, env)
	if err != nil {
		return sqldb.Null(), err
	}
	lo, err := evalExpr(b.Lo, env)
	if err != nil {
		return sqldb.Null(), err
	}
	hi, err := evalExpr(b.Hi, env)
	if err != nil {
		return sqldb.Null(), err
	}
	if x.IsNull() || lo.IsNull() || hi.IsNull() {
		return sqldb.Null(), nil
	}
	c1, ok1 := sqldb.Compare(x, lo)
	c2, ok2 := sqldb.Compare(x, hi)
	if !ok1 || !ok2 {
		return sqldb.Null(), nil
	}
	in := c1 >= 0 && c2 <= 0
	return sqldb.Bool(in != b.Not), nil
}

func evalLike(l *sqlparse.LikeExpr, env *interpEnv) (sqldb.Value, error) {
	x, err := evalExpr(l.X, env)
	if err != nil {
		return sqldb.Null(), err
	}
	p, err := evalExpr(l.Pattern, env)
	if err != nil {
		return sqldb.Null(), err
	}
	if x.IsNull() || p.IsNull() {
		return sqldb.Null(), nil
	}
	matched := likeMatch(strings.ToLower(x.String()), strings.ToLower(p.String()))
	return sqldb.Bool(matched != l.Not), nil
}

func evalScalarSubquery(sel *sqlparse.SelectStmt, env *interpEnv) (sqldb.Value, error) {
	res, err := env.exec.evalStmt(sel, env.sc, env)
	if err != nil {
		return sqldb.Null(), err
	}
	if len(res.Columns) != 1 {
		return sqldb.Null(), execErrf("scalar subquery must return one column, got %d", len(res.Columns))
	}
	if len(res.Rows) == 0 {
		return sqldb.Null(), nil
	}
	if len(res.Rows) > 1 {
		return sqldb.Null(), execErrf("scalar subquery returned %d rows", len(res.Rows))
	}
	return res.Rows[0][0], nil
}

// evalFuncCall dispatches window, aggregate and scalar function calls.
func evalFuncCall(fc *sqlparse.FuncCall, env *interpEnv) (sqldb.Value, error) {
	if fc.Over != nil {
		if env.windows == nil {
			return sqldb.Null(), execErrf("window function %s used outside SELECT or ORDER BY", fc.Name)
		}
		vals, ok := env.windows[fc]
		if !ok {
			return sqldb.Null(), execErrf("window function %s was not precomputed", fc.Name)
		}
		return vals[env.idx], nil
	}
	if isAggregateName(fc.Name) {
		if env.group == nil {
			return sqldb.Null(), execErrf("aggregate %s used outside an aggregation context", fc.Name)
		}
		return evalAggregate(fc, env, env.group)
	}
	return evalScalarFunc(fc, env)
}

// evalScalarFunc evaluates the scalar function library.
func evalScalarFunc(fc *sqlparse.FuncCall, env *interpEnv) (sqldb.Value, error) {
	args := make([]sqldb.Value, len(fc.Args))
	for i, a := range fc.Args {
		v, err := evalExpr(a, env)
		if err != nil {
			return sqldb.Null(), err
		}
		args[i] = v
	}
	return applyScalarFunc(fc.Name, args)
}

// evalAggregate computes a non-windowed aggregate over a group of rows.
func evalAggregate(fc *sqlparse.FuncCall, env *interpEnv, group []sqldb.Row) (sqldb.Value, error) {
	// COUNT(*) needs no argument evaluation.
	if fc.Star {
		if fc.Name != "COUNT" {
			return sqldb.Null(), execErrf("%s(*) is not a valid aggregate", fc.Name)
		}
		return sqldb.Int(int64(len(group))), nil
	}
	if len(fc.Args) != 1 {
		return sqldb.Null(), execErrf("aggregate %s expects exactly 1 argument", fc.Name)
	}
	return aggregateOver(env.sc.scr, fc.Name, group, fc.Distinct, func(row sqldb.Row) (sqldb.Value, error) {
		child := &interpEnv{exec: env.exec, sc: env.sc, cols: env.cols, row: row, outer: env.outer}
		return evalExpr(fc.Args[0], child)
	})
}

// evalWindow computes the per-row values of one windowed function call over
// the ordered list of output environments. Supported functions: ROW_NUMBER,
// RANK, DENSE_RANK, NTILE-free aggregates (SUM/COUNT/AVG/MIN/MAX over the
// whole partition), and LAG/LEAD with optional offset and default.
func (e *Executor) evalWindow(fc *sqlparse.FuncCall, envs []*interpEnv) ([]sqldb.Value, error) {
	n := len(envs)
	out := make([]sqldb.Value, n)

	// Partition (length-prefixed keys: values containing delimiter bytes
	// must not alias across partition columns).
	partKeys := make([]string, n)
	var kb []byte
	for i, env := range envs {
		kb = kb[:0]
		for _, pe := range fc.Over.PartitionBy {
			v, err := evalExpr(pe, env)
			if err != nil {
				return nil, err
			}
			kb = sqldb.AppendValueKey(kb, v)
		}
		partKeys[i] = string(kb)
	}
	partitions := make(map[string][]int)
	var order []string
	for i, key := range partKeys {
		if _, ok := partitions[key]; !ok {
			order = append(order, key)
		}
		partitions[key] = append(partitions[key], i)
	}

	for _, key := range order {
		idxs := partitions[key]

		// Order within the partition.
		var sortKeys [][]sqldb.Value
		if len(fc.Over.OrderBy) > 0 {
			sortKeys = make([][]sqldb.Value, len(idxs))
			for pi, ri := range idxs {
				keys := make([]sqldb.Value, len(fc.Over.OrderBy))
				for ki, item := range fc.Over.OrderBy {
					v, err := evalExpr(item.Expr, envs[ri])
					if err != nil {
						return nil, err
					}
					keys[ki] = v
				}
				sortKeys[pi] = keys
			}
			perm := make([]int, len(idxs))
			for i := range perm {
				perm[i] = i
			}
			sort.SliceStable(perm, func(a, b int) bool {
				for ki, item := range fc.Over.OrderBy {
					c := sqldb.CompareForSort(sortKeys[perm[a]][ki], sortKeys[perm[b]][ki])
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
			reordered := make([]int, len(idxs))
			reorderedKeys := make([][]sqldb.Value, len(idxs))
			for i, p := range perm {
				reordered[i] = idxs[p]
				reorderedKeys[i] = sortKeys[p]
			}
			idxs = reordered
			sortKeys = reorderedKeys
		}

		if err := e.applyWindowFunc(fc, envs, idxs, sortKeys, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (e *Executor) applyWindowFunc(fc *sqlparse.FuncCall, envs []*interpEnv,
	idxs []int, sortKeys [][]sqldb.Value, out []sqldb.Value) error {

	sameKeys := func(a, b []sqldb.Value) bool {
		for i := range a {
			if sqldb.CompareForSort(a[i], b[i]) != 0 {
				return false
			}
		}
		return true
	}

	switch fc.Name {
	case "ROW_NUMBER":
		for pos, ri := range idxs {
			out[ri] = sqldb.Int(int64(pos + 1))
		}
	case "RANK":
		rank := 1
		for pos, ri := range idxs {
			if pos > 0 && sortKeys != nil && !sameKeys(sortKeys[pos-1], sortKeys[pos]) {
				rank = pos + 1
			}
			out[ri] = sqldb.Int(int64(rank))
		}
	case "DENSE_RANK":
		rank := 1
		for pos, ri := range idxs {
			if pos > 0 && sortKeys != nil && !sameKeys(sortKeys[pos-1], sortKeys[pos]) {
				rank++
			}
			out[ri] = sqldb.Int(int64(rank))
		}
	case "LAG", "LEAD":
		if len(fc.Args) < 1 || len(fc.Args) > 3 {
			return execErrf("%s expects 1 to 3 arguments", fc.Name)
		}
		offset := int64(1)
		if len(fc.Args) >= 2 {
			v, err := evalExpr(fc.Args[1], envs[idxs[0]])
			if err != nil {
				return err
			}
			if o, ok := v.AsInt(); ok {
				offset = o
			}
		}
		for pos, ri := range idxs {
			var src int
			if fc.Name == "LAG" {
				src = pos - int(offset)
			} else {
				src = pos + int(offset)
			}
			if src < 0 || src >= len(idxs) {
				if len(fc.Args) == 3 {
					v, err := evalExpr(fc.Args[2], envs[ri])
					if err != nil {
						return err
					}
					out[ri] = v
				} else {
					out[ri] = sqldb.Null()
				}
				continue
			}
			v, err := evalExpr(fc.Args[0], envs[idxs[src]])
			if err != nil {
				return err
			}
			out[ri] = v
		}
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		// Aggregate over the whole partition (no frame support).
		var vals []sqldb.Value
		if fc.Star {
			if fc.Name != "COUNT" {
				return execErrf("%s(*) is not a valid window aggregate", fc.Name)
			}
			for _, ri := range idxs {
				out[ri] = sqldb.Int(int64(len(idxs)))
			}
			return nil
		}
		if len(fc.Args) != 1 {
			return execErrf("window aggregate %s expects 1 argument", fc.Name)
		}
		for _, ri := range idxs {
			v, err := evalExpr(fc.Args[0], envs[ri])
			if err != nil {
				return err
			}
			if !v.IsNull() {
				vals = append(vals, v)
			}
		}
		var agg sqldb.Value
		switch fc.Name {
		case "COUNT":
			agg = sqldb.Int(int64(len(vals)))
		case "SUM":
			if len(vals) == 0 {
				agg = sqldb.Null()
			} else {
				s, err := sumValues(vals)
				if err != nil {
					return err
				}
				agg = s
			}
		case "AVG":
			if len(vals) == 0 {
				agg = sqldb.Null()
			} else {
				s, err := sumValues(vals)
				if err != nil {
					return err
				}
				f, _ := s.AsFloat()
				agg = sqldb.Float(f / float64(len(vals)))
			}
		case "MIN":
			agg = extremum(vals, -1)
		case "MAX":
			agg = extremum(vals, 1)
		}
		for _, ri := range idxs {
			out[ri] = agg
		}
	default:
		return execErrf("unsupported window function %s", fc.Name)
	}
	return nil
}
