package sqlexec

import (
	"strings"

	"genedit/internal/sqldb"
	"genedit/internal/sqlparse"
)

// Expression compilation: a one-time pass that lowers an expression tree
// into a closure-based eval program. Column references are bound at compile
// time to a (depth, ordinal) pair — depth 0 is the relation the expression
// runs over, depth k the k-th enclosing row of a correlated subquery — in
// the interpreter's search order, so no row resolves a name. Constant
// subexpressions are folded once, and the programs run against a reusable
// row environment (no per-row allocation). Scalar, EXISTS and IN subqueries
// compile to statement plans of their own (plan.go).
//
// Values, NULL semantics, short-circuit order and error text are the
// tree-walking interpreter's, which the tests keep as the oracle
// (interp_test.go): every non-trivial value operation goes through helpers
// both share (applyUnary, applyBinary, applyScalarFunc, finishAggregate,
// likeMatch, sqldb.Compare/Cast). Constant folding never surfaces an error
// early: a constant subexpression that fails evaluation becomes a thunk
// returning that error, raised only if and when the interpreter would have
// evaluated it.

// program is a compiled expression, evaluated against a (reusable) row
// environment. Programs are stateless closures over immutable compile-time
// data, so one compiled plan may execute on any number of goroutines.
type program func(env *rowEnv) (sqldb.Value, error)

// constProgram returns a program with a pre-computed result.
func constProgram(v sqldb.Value, err error) program {
	return func(*rowEnv) (sqldb.Value, error) { return v, err }
}

// foldConst evaluates a constant program once at compile time. Constant
// programs never touch their environment, so a nil env is safe.
func foldConst(prog program, isConst bool) (program, bool) {
	if !isConst {
		return prog, false
	}
	v, err := prog(nil)
	return constProgram(v, err), true
}

// binder is the compile-time shape of a row environment: the columns of
// the relation an expression runs over, the binder of the row enclosing it
// (a correlated subquery's outer query), the database and CTE layouts a
// subquery compiles against, and the core's window calls in the order
// runCore computes them. A nil binder binds nothing (staticInt).
type binder struct {
	db      *sqldb.Database
	ss      *staticScope
	cols    []bindCol
	outer   *binder
	windows []*sqlparse.FuncCall
}

// bind resolves a column reference as the oracle's resolveColumn does per
// row: the current layout first, then each enclosing one. ord is -1 when
// nothing binds.
func (b *binder) bind(cr *sqlparse.ColumnRef) (depth, ord int) {
	for ; b != nil; b = b.outer {
		if ord := bindColumn(cr, b.cols); ord >= 0 {
			return depth, ord
		}
		depth++
	}
	return 0, -1
}

// bindColumn resolves a column reference against one column layout, in the
// oracle's search order (first match wins). It returns -1 when the
// reference does not bind.
func bindColumn(cr *sqlparse.ColumnRef, cols []bindCol) int {
	for i, c := range cols {
		if cr.Table != "" && !strings.EqualFold(cr.Table, c.qual) {
			continue
		}
		if strings.EqualFold(cr.Name, c.name) {
			return i
		}
	}
	return -1
}

// compileExpr lowers e into a program bound under b. The second result
// reports whether the program is a compile-time constant (already folded).
// Compilation always succeeds; it is evaluation that may error, exactly as
// under the interpreter.
func compileExpr(e sqlparse.Expr, b *binder) (program, bool) {
	switch x := e.(type) {
	case *sqlparse.NumberLit:
		v, err := parseNumber(x.Text)
		return constProgram(v, err), true
	case *sqlparse.StringLit:
		return constProgram(sqldb.Str(x.Val), nil), true
	case *sqlparse.NullLit:
		return constProgram(sqldb.Null(), nil), true
	case *sqlparse.BoolLit:
		return constProgram(sqldb.Bool(x.Val), nil), true

	case *sqlparse.ColumnRef:
		depth, ord := b.bind(x)
		if ord < 0 {
			name := x.Name
			if x.Table != "" {
				name = x.Table + "." + name
			}
			// The oracle's resolveColumn raises this per row, after
			// searching every enclosing row.
			return constProgram(sqldb.Null(), execErrf("unknown column %q", name)), false
		}
		if depth == 0 {
			return func(env *rowEnv) (sqldb.Value, error) {
				if ord < len(env.row) {
					return env.row[ord], nil
				}
				return sqldb.Null(), nil
			}, false
		}
		return func(env *rowEnv) (sqldb.Value, error) {
			for d := 0; d < depth; d++ {
				env = env.outer
			}
			if ord < len(env.row) {
				return env.row[ord], nil
			}
			return sqldb.Null(), nil
		}, false

	case *sqlparse.Unary:
		xp, xc := compileExpr(x.X, b)
		op := x.Op
		return foldConst(func(env *rowEnv) (sqldb.Value, error) {
			v, err := xp(env)
			if err != nil {
				return sqldb.Null(), err
			}
			return applyUnary(op, v)
		}, xc)

	case *sqlparse.Binary:
		verdict := comparisonVerdict(x.Op)
		if verdict != nil {
			if prog, isConst, ok := compileToCharCompare(x, verdict, b); ok {
				return prog, isConst
			}
		}
		lp, lc := compileExpr(x.L, b)
		rp, rc := compileExpr(x.R, b)
		op := x.Op
		switch op {
		case "AND":
			return foldConst(func(env *rowEnv) (sqldb.Value, error) {
				l, err := lp(env)
				if err != nil {
					return sqldb.Null(), err
				}
				if !l.IsNull() && !truthy(l) {
					return sqldb.Bool(false), nil
				}
				r, err := rp(env)
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
			}, lc && rc)
		case "OR":
			return foldConst(func(env *rowEnv) (sqldb.Value, error) {
				l, err := lp(env)
				if err != nil {
					return sqldb.Null(), err
				}
				if !l.IsNull() && truthy(l) {
					return sqldb.Bool(true), nil
				}
				r, err := rp(env)
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
			}, lc && rc)
		}
		// Operator dispatch is hoisted to compile time: comparisons bind a
		// verdict function over sqldb.Compare, arithmetic goes straight to
		// applyArith — no per-row string switch. Semantics and error text
		// stay those of applyBinary.
		switch op {
		case "=", "<>", "<", "<=", ">", ">=":
			return foldConst(func(env *rowEnv) (sqldb.Value, error) {
				l, err := lp(env)
				if err != nil {
					return sqldb.Null(), err
				}
				r, err := rp(env)
				if err != nil {
					return sqldb.Null(), err
				}
				if l.IsNull() || r.IsNull() {
					return sqldb.Null(), nil
				}
				c, ok := sqldb.Compare(l, r)
				if !ok {
					return sqldb.Null(), nil
				}
				return sqldb.Bool(verdict(c)), nil
			}, lc && rc)
		case "||":
			return foldConst(func(env *rowEnv) (sqldb.Value, error) {
				l, err := lp(env)
				if err != nil {
					return sqldb.Null(), err
				}
				r, err := rp(env)
				if err != nil {
					return sqldb.Null(), err
				}
				if l.IsNull() || r.IsNull() {
					return sqldb.Null(), nil
				}
				return sqldb.Str(l.String() + r.String()), nil
			}, lc && rc)
		case "+", "-", "*", "/", "%":
			return foldConst(func(env *rowEnv) (sqldb.Value, error) {
				l, err := lp(env)
				if err != nil {
					return sqldb.Null(), err
				}
				r, err := rp(env)
				if err != nil {
					return sqldb.Null(), err
				}
				return applyArith(op, l, r)
			}, lc && rc)
		}
		return foldConst(func(env *rowEnv) (sqldb.Value, error) {
			l, err := lp(env)
			if err != nil {
				return sqldb.Null(), err
			}
			r, err := rp(env)
			if err != nil {
				return sqldb.Null(), err
			}
			return applyBinary(op, l, r)
		}, lc && rc)

	case *sqlparse.FuncCall:
		return compileFuncCall(x, b)

	case *sqlparse.CaseExpr:
		return compileCase(x, b)

	case *sqlparse.CastExpr:
		xp, xc := compileExpr(x.X, b)
		typ := x.Type
		return foldConst(func(env *rowEnv) (sqldb.Value, error) {
			v, err := xp(env)
			if err != nil {
				return sqldb.Null(), err
			}
			cv, err := sqldb.Cast(v, typ)
			if err != nil {
				return sqldb.Null(), &ExecError{Msg: err.Error()}
			}
			return cv, nil
		}, xc)

	case *sqlparse.InExpr:
		if x.Select != nil {
			return compileInSubquery(x, b), false
		}
		if prog, isConst, ok := compileToCharIn(x, b); ok {
			return prog, isConst
		}
		xp, xc := compileExpr(x.X, b)
		items := make([]program, len(x.List))
		listConst := true
		for i, item := range x.List {
			var ic bool
			items[i], ic = compileExpr(item, b)
			listConst = listConst && ic
		}
		not := x.Not
		// The interpreter evaluates X, stops on a NULL X, then evaluates
		// every list item (its errors surface) before the membership
		// verdict; both forms below keep that order.
		if listConst {
			// A constant list is evaluated once, here, up to its first
			// error — which a row raises only after its X evaluated clean
			// and non-NULL, exactly where the interpreter reaches it.
			candidates := make([]sqldb.Value, 0, len(items))
			var listErr error
			for _, p := range items {
				v, err := p(nil)
				if err != nil {
					listErr = err
					break
				}
				candidates = append(candidates, v)
			}
			return foldConst(func(env *rowEnv) (sqldb.Value, error) {
				xv, err := xp(env)
				if err != nil {
					return sqldb.Null(), err
				}
				if xv.IsNull() {
					return sqldb.Null(), nil
				}
				if listErr != nil {
					return sqldb.Null(), listErr
				}
				return inVerdict(xv, candidates, not), nil
			}, xc)
		}
		// A list with a non-constant item is never constant, so env (and
		// its scratch) is there.
		return func(env *rowEnv) (sqldb.Value, error) {
			xv, err := xp(env)
			if err != nil {
				return sqldb.Null(), err
			}
			if xv.IsNull() {
				return sqldb.Null(), nil
			}
			scr := env.sc.scr
			mark := scr.vals.mark()
			defer scr.vals.release(mark)
			candidates := scr.vals.take(len(items))
			for i, p := range items {
				v, err := p(env)
				if err != nil {
					return sqldb.Null(), err
				}
				candidates[i] = v
			}
			return inVerdict(xv, candidates, not), nil
		}, false

	case *sqlparse.BetweenExpr:
		xp, xc := compileExpr(x.X, b)
		lop, loc := compileExpr(x.Lo, b)
		hip, hic := compileExpr(x.Hi, b)
		not := x.Not
		return foldConst(func(env *rowEnv) (sqldb.Value, error) {
			xv, err := xp(env)
			if err != nil {
				return sqldb.Null(), err
			}
			lo, err := lop(env)
			if err != nil {
				return sqldb.Null(), err
			}
			hi, err := hip(env)
			if err != nil {
				return sqldb.Null(), err
			}
			if xv.IsNull() || lo.IsNull() || hi.IsNull() {
				return sqldb.Null(), nil
			}
			c1, ok1 := sqldb.Compare(xv, lo)
			c2, ok2 := sqldb.Compare(xv, hi)
			if !ok1 || !ok2 {
				return sqldb.Null(), nil
			}
			in := c1 >= 0 && c2 <= 0
			return sqldb.Bool(in != not), nil
		}, xc && loc && hic)

	case *sqlparse.LikeExpr:
		xp, xc := compileExpr(x.X, b)
		pp, pc := compileExpr(x.Pattern, b)
		not := x.Not
		if pc && !xc {
			// Constant pattern: analyze it once. Plain equality, prefix,
			// suffix and substring patterns skip the dynamic-programming
			// matcher (and its per-row buffers) entirely.
			if pv, perr := pp(nil); perr == nil && !pv.IsNull() {
				matcher := compileLikeMatcher(strings.ToLower(pv.String()))
				return func(env *rowEnv) (sqldb.Value, error) {
					xv, err := xp(env)
					if err != nil {
						return sqldb.Null(), err
					}
					if xv.IsNull() {
						return sqldb.Null(), nil
					}
					return sqldb.Bool(matcher(strings.ToLower(xv.String())) != not), nil
				}, false
			}
		}
		return foldConst(func(env *rowEnv) (sqldb.Value, error) {
			xv, err := xp(env)
			if err != nil {
				return sqldb.Null(), err
			}
			pv, err := pp(env)
			if err != nil {
				return sqldb.Null(), err
			}
			if xv.IsNull() || pv.IsNull() {
				return sqldb.Null(), nil
			}
			matched := likeMatch(strings.ToLower(xv.String()), strings.ToLower(pv.String()))
			return sqldb.Bool(matched != not), nil
		}, xc && pc)

	case *sqlparse.IsNullExpr:
		xp, xc := compileExpr(x.X, b)
		not := x.Not
		return foldConst(func(env *rowEnv) (sqldb.Value, error) {
			v, err := xp(env)
			if err != nil {
				return sqldb.Null(), err
			}
			return sqldb.Bool(v.IsNull() != not), nil
		}, xc)

	case *sqlparse.ExistsExpr:
		run := compileSubquery(x.Select, b)
		not := x.Not
		return func(env *rowEnv) (sqldb.Value, error) {
			res, err := run(env)
			if err != nil {
				return sqldb.Null(), err
			}
			return sqldb.Bool((len(res.Rows) > 0) != not), nil
		}, false

	case *sqlparse.SubqueryExpr:
		run := compileSubquery(x.Select, b)
		return func(env *rowEnv) (sqldb.Value, error) {
			res, err := run(env)
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
		}, false
	}
	return constProgram(sqldb.Null(), execErrf("unsupported expression %T", e)), false
}

// compileSubquery compiles a subquery's statement under b, whose row
// becomes the statement's enclosing row. The plan runs on every
// evaluation, as the interpreter runs the statement.
func compileSubquery(sel *sqlparse.SelectStmt, b *binder) func(*rowEnv) (*Result, error) {
	if b == nil {
		// Only staticInt compiles without a binder, and it rejects any
		// non-constant expression before running one.
		return func(*rowEnv) (*Result, error) { return nil, execErrf("subquery outside a statement") }
	}
	sp, _ := compileStmtIn(b.db, sel, b.ss, b)
	return func(env *rowEnv) (*Result, error) {
		return env.exec.runStmt(sp, &scope{parent: env.sc, scr: env.sc.scr, outer: env})
	}
}

// compileInSubquery lowers x [NOT] IN (SELECT ...): X first, NULL without
// running the subquery, then the subquery's one column as the candidates.
func compileInSubquery(in *sqlparse.InExpr, b *binder) program {
	xp, _ := compileExpr(in.X, b)
	run := compileSubquery(in.Select, b)
	not := in.Not
	return func(env *rowEnv) (sqldb.Value, error) {
		xv, err := xp(env)
		if err != nil {
			return sqldb.Null(), err
		}
		if xv.IsNull() {
			return sqldb.Null(), nil
		}
		res, err := run(env)
		if err != nil {
			return sqldb.Null(), err
		}
		if len(res.Columns) != 1 {
			return sqldb.Null(), execErrf("IN subquery must return one column, got %d", len(res.Columns))
		}
		scr := env.sc.scr
		mark := scr.vals.mark()
		defer scr.vals.release(mark)
		candidates := scr.vals.take(len(res.Rows))
		for i, r := range res.Rows {
			candidates[i] = r[0]
		}
		return inVerdict(xv, candidates, not), nil
	}
}

// inVerdict is x [NOT] IN candidates for a non-NULL x: a match decides,
// otherwise a NULL candidate makes the verdict NULL.
func inVerdict(xv sqldb.Value, candidates []sqldb.Value, not bool) sqldb.Value {
	sawNull := false
	for _, c := range candidates {
		if c.IsNull() {
			sawNull = true
			continue
		}
		if xv.Equal(c) {
			return sqldb.Bool(!not)
		}
	}
	if sawNull {
		return sqldb.Null()
	}
	return sqldb.Bool(not)
}

// comparisonVerdict maps a comparison operator to the test its
// sqldb.Compare result must pass, nil for any other operator.
func comparisonVerdict(op string) func(int) bool {
	switch op {
	case "=":
		return func(c int) bool { return c == 0 }
	case "<>":
		return func(c int) bool { return c != 0 }
	case "<":
		return func(c int) bool { return c < 0 }
	case "<=":
		return func(c int) bool { return c <= 0 }
	case ">":
		return func(c int) bool { return c > 0 }
	case ">=":
		return func(c int) bool { return c >= 0 }
	}
	return nil
}

// toCharOf matches TO_CHAR(x, 'format') with a string-literal format,
// returning x and the format.
func toCharOf(e sqlparse.Expr) (sqlparse.Expr, string, bool) {
	fc, ok := e.(*sqlparse.FuncCall)
	if !ok || fc.Name != "TO_CHAR" || fc.Over != nil || len(fc.Args) != 2 {
		return nil, "", false
	}
	format, ok := fc.Args[1].(*sqlparse.StringLit)
	if !ok {
		return nil, "", false
	}
	return fc.Args[0], format.Val, true
}

// compileToCharCompare specializes TO_CHAR(x, 'format') <cmp> 'literal',
// the shape of date bucketing filters and CASE pivots: the date is
// formatted on the stack and compared as bytes (toCharCompare), so a row
// costs no string. The interpreter's order stands: x, then TO_CHAR's NULL
// and error, then the comparison; a literal is never NULL and never fails.
// ok is false for any other shape.
func compileToCharCompare(x *sqlparse.Binary, verdict func(int) bool, b *binder) (prog program, isConst, ok bool) {
	arg, format, ok := toCharOf(x.L)
	lit, isLit := x.R.(*sqlparse.StringLit)
	if !ok || !isLit {
		return nil, false, false
	}
	xp, xc := compileExpr(arg, b)
	want := []byte(lit.Val)
	prog, isConst = foldConst(func(env *rowEnv) (sqldb.Value, error) {
		xv, err := xp(env)
		if err != nil {
			return sqldb.Null(), err
		}
		if xv.IsNull() {
			return sqldb.Null(), nil
		}
		c, err := toCharCompare(xv.String(), format, want)
		if err != nil {
			return sqldb.Null(), err
		}
		return sqldb.Bool(verdict(c)), nil
	}, xc)
	return prog, isConst, true
}

// compileToCharIn specializes TO_CHAR(x, 'format') [NOT] IN ('a', ...)
// with string-literal items the same way: no item is NULL or fails, so the
// verdict is whether one equals the formatted bytes (toCharIn).
func compileToCharIn(in *sqlparse.InExpr, b *binder) (prog program, isConst, ok bool) {
	arg, format, ok := toCharOf(in.X)
	if !ok {
		return nil, false, false
	}
	lits := make([][]byte, len(in.List))
	for i, item := range in.List {
		lit, isLit := item.(*sqlparse.StringLit)
		if !isLit {
			return nil, false, false
		}
		lits[i] = []byte(lit.Val)
	}
	xp, xc := compileExpr(arg, b)
	not := in.Not
	prog, isConst = foldConst(func(env *rowEnv) (sqldb.Value, error) {
		xv, err := xp(env)
		if err != nil {
			return sqldb.Null(), err
		}
		if xv.IsNull() {
			return sqldb.Null(), nil
		}
		found, err := toCharIn(xv.String(), format, lits)
		if err != nil {
			return sqldb.Null(), err
		}
		return sqldb.Bool(found != not), nil
	}, xc)
	return prog, isConst, true
}

// compileFuncCall lowers window, aggregate and scalar calls.
func compileFuncCall(fc *sqlparse.FuncCall, b *binder) (program, bool) {
	if fc.Over != nil {
		// runCore computes the core's window calls after HAVING and hands
		// them to its projection, ORDER BY and later window calls; anywhere
		// else (WHERE, GROUP BY, HAVING, an aggregate's argument) the
		// environment carries none, and a call nested in an earlier one's
		// arguments is not computed yet.
		k := -1
		if b != nil {
			for i, w := range b.windows {
				if w == fc {
					k = i
				}
			}
		}
		return func(env *rowEnv) (sqldb.Value, error) {
			if env.win == nil {
				return sqldb.Null(), execErrf("window function %s used outside SELECT or ORDER BY", fc.Name)
			}
			if k < 0 || k >= len(env.win) {
				return sqldb.Null(), execErrf("window function %s was not precomputed", fc.Name)
			}
			return env.win[k][env.idx], nil
		}, false
	}
	if isAggregateName(fc.Name) {
		var argProg program
		if !fc.Star && len(fc.Args) == 1 {
			argProg, _ = compileExpr(fc.Args[0], b)
		}
		return func(env *rowEnv) (sqldb.Value, error) {
			if env.group == nil {
				return sqldb.Null(), execErrf("aggregate %s used outside an aggregation context", fc.Name)
			}
			if fc.Star {
				if fc.Name != "COUNT" {
					return sqldb.Null(), execErrf("%s(*) is not a valid aggregate", fc.Name)
				}
				return sqldb.Int(int64(len(env.group))), nil
			}
			if len(fc.Args) != 1 {
				return sqldb.Null(), execErrf("aggregate %s expects exactly 1 argument", fc.Name)
			}
			// One child environment per aggregate evaluation (per group),
			// reused across the group's rows — not one per row as the
			// interpreter allocates.
			child := &rowEnv{exec: env.exec, sc: env.sc, outer: env.outer}
			return aggregateOver(env.sc.scr, fc.Name, env.group, fc.Distinct, func(row sqldb.Row) (sqldb.Value, error) {
				child.row = row
				return argProg(child)
			})
		}, false
	}
	args := make([]program, len(fc.Args))
	allConst := true
	for i, a := range fc.Args {
		var ac bool
		args[i], ac = compileExpr(a, b)
		allConst = allConst && ac
	}
	name := fc.Name
	return foldConst(func(env *rowEnv) (sqldb.Value, error) {
		// Small-arity calls evaluate into a stack buffer; applyScalarFunc
		// does not retain its argument slice.
		var buf [4]sqldb.Value
		var vals []sqldb.Value
		if len(args) <= len(buf) {
			vals = buf[:len(args)]
		} else {
			vals = make([]sqldb.Value, len(args))
		}
		for i, p := range args {
			v, err := p(env)
			if err != nil {
				return sqldb.Null(), err
			}
			vals[i] = v
		}
		return applyScalarFunc(name, vals)
	}, allConst)
}

// compileLikeMatcher specializes a lower-cased constant LIKE pattern. The
// returned matcher is exactly likeMatch for that pattern: wildcard-free
// patterns are equality, "p%" / "%s" / "%m%" (wildcard-free core) map to
// prefix/suffix/substring tests, everything else runs the shared DP.
func compileLikeMatcher(p string) func(string) bool {
	if !strings.ContainsAny(p, "%_") {
		return func(s string) bool { return s == p }
	}
	if len(p) >= 2 && p[0] == '%' && p[len(p)-1] == '%' {
		if mid := p[1 : len(p)-1]; !strings.ContainsAny(mid, "%_") {
			return func(s string) bool { return strings.Contains(s, mid) }
		}
	}
	if p[len(p)-1] == '%' {
		if pre := p[:len(p)-1]; !strings.ContainsAny(pre, "%_") {
			return func(s string) bool { return strings.HasPrefix(s, pre) }
		}
	}
	if p[0] == '%' {
		if suf := p[1:]; !strings.ContainsAny(suf, "%_") {
			return func(s string) bool { return strings.HasSuffix(s, suf) }
		}
	}
	return func(s string) bool { return likeMatch(s, p) }
}

func compileCase(ce *sqlparse.CaseExpr, b *binder) (program, bool) {
	allConst := true
	var operand program
	if ce.Operand != nil {
		var oc bool
		operand, oc = compileExpr(ce.Operand, b)
		allConst = allConst && oc
	}
	conds := make([]program, len(ce.Whens))
	thens := make([]program, len(ce.Whens))
	for i, w := range ce.Whens {
		var cc, tc bool
		conds[i], cc = compileExpr(w.Cond, b)
		thens[i], tc = compileExpr(w.Then, b)
		allConst = allConst && cc && tc
	}
	var elseProg program
	if ce.Else != nil {
		var ec bool
		elseProg, ec = compileExpr(ce.Else, b)
		allConst = allConst && ec
	}
	return foldConst(func(env *rowEnv) (sqldb.Value, error) {
		if operand != nil {
			op, err := operand(env)
			if err != nil {
				return sqldb.Null(), err
			}
			for i, cond := range conds {
				cv, err := cond(env)
				if err != nil {
					return sqldb.Null(), err
				}
				if !op.IsNull() && !cv.IsNull() && op.Equal(cv) {
					return thens[i](env)
				}
			}
		} else {
			for i, cond := range conds {
				cv, err := cond(env)
				if err != nil {
					return sqldb.Null(), err
				}
				if truthy(cv) {
					return thens[i](env)
				}
			}
		}
		if elseProg != nil {
			return elseProg(env)
		}
		return sqldb.Null(), nil
	}, allConst)
}

// staticInt folds a LIMIT/OFFSET expression to an integer at plan time
// (the oracle calls it at apply time), so non-constant and non-integer
// limits are rejected identically.
func staticInt(expr sqlparse.Expr) (int64, error) {
	prog, isConst := compileExpr(expr, nil)
	if !isConst {
		return 0, execErrf("LIMIT/OFFSET must be a constant expression")
	}
	v, err := prog(nil)
	if err != nil {
		return 0, err
	}
	n, ok := v.AsInt()
	if !ok {
		return 0, execErrf("LIMIT/OFFSET requires an integer, got %q", v.String())
	}
	return n, nil
}
