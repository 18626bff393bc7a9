package sqlexec

import (
	"strings"

	"genedit/internal/sqldb"
	"genedit/internal/sqlparse"
)

// Expression compilation: a one-time pass that lowers an expression tree
// into a closure-based eval program. Column references are bound to ordinal
// indexes against the relation's column layout at compile time (no per-row
// name lookup), constant subexpressions are folded once, and the resulting
// programs run against a reusable row environment (no per-row allocation).
//
// Parity with the tree-walking interpreter is exact — values, NULL
// semantics, short-circuit order and error text — because every non-trivial
// value operation goes through the same helpers the interpreter uses
// (applyUnary, applyBinary, applyScalarFunc, finishAggregate, likeMatch,
// sqldb.Compare/Cast), and nodes the compiler does not specialize
// (subqueries, EXISTS, IN-subquery) delegate to evalExpr on the same
// environment. Constant folding never surfaces an error early: a constant
// subexpression that fails evaluation becomes a thunk returning that error,
// raised only if and when the interpreter would have evaluated it.

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

// delegate wraps a node the compiler does not specialize; the interpreter
// evaluates it against the same environment, so semantics are identical by
// construction.
func delegate(e sqlparse.Expr) program {
	return func(env *rowEnv) (sqldb.Value, error) { return evalExpr(e, env) }
}

// bindColumn resolves a column reference against a column layout, using
// exactly resolveColumn's search order (first match wins). It returns -1
// when the reference does not bind.
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

// compileExpr lowers e into a program bound to cols. The second result
// reports whether the program is a compile-time constant (already folded).
// Compilation always succeeds; it is evaluation that may error, exactly as
// under the interpreter.
func compileExpr(e sqlparse.Expr, cols []bindCol) (program, bool) {
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
		ord := bindColumn(x, cols)
		if ord < 0 {
			name := x.Name
			if x.Table != "" {
				name = x.Table + "." + name
			}
			// Compiled statements always run with no enclosing query (inner
			// subqueries stay interpreted), so an unbound name here is the
			// same per-row error resolveColumn raises.
			return constProgram(sqldb.Null(), execErrf("unknown column %q", name)), false
		}
		return func(env *rowEnv) (sqldb.Value, error) {
			if ord < len(env.row) {
				return env.row[ord], nil
			}
			return sqldb.Null(), nil
		}, false

	case *sqlparse.Unary:
		xp, xc := compileExpr(x.X, cols)
		op := x.Op
		return foldConst(func(env *rowEnv) (sqldb.Value, error) {
			v, err := xp(env)
			if err != nil {
				return sqldb.Null(), err
			}
			return applyUnary(op, v)
		}, xc)

	case *sqlparse.Binary:
		lp, lc := compileExpr(x.L, cols)
		rp, rc := compileExpr(x.R, cols)
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
		// evalArith — no per-row string switch. Semantics and error text
		// stay those of applyBinary.
		switch op {
		case "=", "<>", "<", "<=", ">", ">=":
			var verdict func(int) bool
			switch op {
			case "=":
				verdict = func(c int) bool { return c == 0 }
			case "<>":
				verdict = func(c int) bool { return c != 0 }
			case "<":
				verdict = func(c int) bool { return c < 0 }
			case "<=":
				verdict = func(c int) bool { return c <= 0 }
			case ">":
				verdict = func(c int) bool { return c > 0 }
			default:
				verdict = func(c int) bool { return c >= 0 }
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
				return evalArith(op, l, r)
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
		return compileFuncCall(x, cols)

	case *sqlparse.CaseExpr:
		return compileCase(x, cols)

	case *sqlparse.CastExpr:
		xp, xc := compileExpr(x.X, cols)
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
			return delegate(x), false
		}
		xp, xc := compileExpr(x.X, cols)
		items := make([]program, len(x.List))
		listConst := true
		for i, item := range x.List {
			var ic bool
			items[i], ic = compileExpr(item, cols)
			listConst = listConst && ic
		}
		not := x.Not
		// The interpreter evaluates X, stops on a NULL X, then evaluates
		// every list item (its errors surface) before the membership
		// verdict; both forms below keep that order.
		verdict := func(xv sqldb.Value, candidates []sqldb.Value) sqldb.Value {
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
				return verdict(xv, candidates), nil
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
			return verdict(xv, candidates), nil
		}, false

	case *sqlparse.BetweenExpr:
		xp, xc := compileExpr(x.X, cols)
		lop, loc := compileExpr(x.Lo, cols)
		hip, hic := compileExpr(x.Hi, cols)
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
		xp, xc := compileExpr(x.X, cols)
		pp, pc := compileExpr(x.Pattern, cols)
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
		xp, xc := compileExpr(x.X, cols)
		not := x.Not
		return foldConst(func(env *rowEnv) (sqldb.Value, error) {
			v, err := xp(env)
			if err != nil {
				return sqldb.Null(), err
			}
			return sqldb.Bool(v.IsNull() != not), nil
		}, xc)

	case *sqlparse.ExistsExpr, *sqlparse.SubqueryExpr:
		return delegate(e), false
	}
	return delegate(e), false
}

// compileFuncCall lowers window, aggregate and scalar calls.
func compileFuncCall(fc *sqlparse.FuncCall, cols []bindCol) (program, bool) {
	if fc.Over != nil {
		// Cores whose SELECT items or ORDER BY contain window calls run
		// through the interpreter, so in compiled cores a window call can
		// only appear in an invalid position (WHERE, GROUP BY, HAVING) —
		// reproduce the interpreter's diagnostics exactly.
		return func(env *rowEnv) (sqldb.Value, error) {
			if env.windows == nil {
				return sqldb.Null(), execErrf("window function %s used outside SELECT or ORDER BY", fc.Name)
			}
			vals, ok := env.windows[fc]
			if !ok {
				return sqldb.Null(), execErrf("window function %s was not precomputed", fc.Name)
			}
			return vals[env.idx], nil
		}, false
	}
	if isAggregateName(fc.Name) {
		var argProg program
		if !fc.Star && len(fc.Args) == 1 {
			argProg, _ = compileExpr(fc.Args[0], cols)
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
			child := &rowEnv{exec: env.exec, sc: env.sc, cols: env.cols, outer: env.outer}
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
		args[i], ac = compileExpr(a, cols)
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

func compileCase(ce *sqlparse.CaseExpr, cols []bindCol) (program, bool) {
	allConst := true
	var operand program
	if ce.Operand != nil {
		var oc bool
		operand, oc = compileExpr(ce.Operand, cols)
		allConst = allConst && oc
	}
	conds := make([]program, len(ce.Whens))
	thens := make([]program, len(ce.Whens))
	for i, w := range ce.Whens {
		var cc, tc bool
		conds[i], cc = compileExpr(w.Cond, cols)
		thens[i], tc = compileExpr(w.Then, cols)
		allConst = allConst && cc && tc
	}
	var elseProg program
	if ce.Else != nil {
		var ec bool
		elseProg, ec = compileExpr(ce.Else, cols)
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

// staticInt folds a LIMIT/OFFSET expression to an integer. Both execution
// paths use it (the interpreter at apply time, the compiler at plan time),
// so non-constant and non-integer limits are rejected identically.
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
