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
// compile to statement plans of their own (plan.go); one that reads no
// enclosing row runs once per scope, on first use.
//
// Conditions — WHERE, HAVING, join ON, CASE WHEN, and AND, OR, NOT,
// comparisons and IN anywhere — compile to predicates, which return a
// three-valued verdict: nested AND/OR chains are flat short-circuit lists,
// and the common leaves are typed kernels (a column against a literal,
// YEAR/MONTH/QUARTER/DAY against a number, TO_CHAR against string
// literals, constant IN lists). In a value context the same predicate is
// read back as TRUE, FALSE or NULL.
//
// Values, NULL semantics, short-circuit order and error text are the
// tree-walking interpreter's, which the tests keep as the oracle
// (interp_test.go): every non-trivial value operation goes through helpers
// both share (applyUnary, applyBinary, applyScalarFunc, finishAggregate,
// likeMatch, sqldb.Compare/Cast), and a kernel takes the shared helper's
// path for any value it does not specialize. Constant folding never
// surfaces an error early: a constant subexpression that fails evaluation
// becomes a thunk returning that error, raised only if and when the
// interpreter would have evaluated it.

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
// innerReads counts the references from inside a subquery that bound here
// or further out: compileSubquery reads it to tell a correlated subquery
// from one that reads no enclosing row.
type binder struct {
	db         *sqldb.Database
	ss         *staticScope
	cols       []bindCol
	outer      *binder
	windows    []*sqlparse.FuncCall
	innerReads int
}

// bind resolves a column reference as the oracle's resolveColumn does per
// row: the current layout first, then each enclosing one. ord is -1 when
// nothing binds.
func (b *binder) bind(cr *sqlparse.ColumnRef) (depth, ord int) {
	for x := b; x != nil; x = x.outer {
		if ord := bindColumn(cr, x.cols); ord >= 0 {
			for y := b; y != x; y = y.outer {
				y.outer.innerReads++
			}
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
			return func(env *rowEnv) (sqldb.Value, error) { return env.col(ord), nil }, false
		}
		return func(env *rowEnv) (sqldb.Value, error) {
			for d := 0; d < depth; d++ {
				env = env.outer
			}
			return env.col(ord), nil
		}, false

	case *sqlparse.Unary:
		if x.Op == "NOT" {
			return predProgram(compilePred(x, b))
		}
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
		if x.Op == "AND" || x.Op == "OR" || comparisonMasks[x.Op] != 0 {
			return predProgram(compilePred(x, b))
		}
		lp, lc := compileExpr(x.L, b)
		rp, rc := compileExpr(x.R, b)
		op := x.Op
		// Arithmetic dispatch is hoisted to compile time: it goes straight
		// to applyArith — no per-row string switch. Semantics and error text
		// stay those of applyBinary.
		switch op {
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
		return predProgram(compilePred(x, b))

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
			// Two non-NULL values always compare.
			c1, _ := sqldb.Compare(xv, lo)
			c2, _ := sqldb.Compare(xv, hi)
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
// becomes the statement's enclosing row. A correlated plan runs on every
// evaluation, as the interpreter runs the statement. One that reads no
// enclosing row gives the same result or error for every row, so it runs
// once per scope — one run of the enclosing statement — on first use: a
// core with no rows never raises its error.
func compileSubquery(sel *sqlparse.SelectStmt, b *binder) func(*rowEnv) (*Result, error) {
	if b == nil {
		// Only staticInt compiles without a binder, and it rejects any
		// non-constant expression before running one.
		return func(*rowEnv) (*Result, error) { return nil, execErrf("subquery outside a statement") }
	}
	reads := b.innerReads
	sp, _ := compileStmtIn(b.db, sel, b.ss, b)
	correlated := b.innerReads != reads
	return func(env *rowEnv) (*Result, error) {
		sc := env.sc
		if correlated {
			return env.exec.runStmt(sp, &scope{parent: sc, scr: sc.scr, outer: env})
		}
		for _, m := range sc.memos {
			if m.sp == sp {
				return m.res, m.err
			}
		}
		res, err := env.exec.runStmt(sp, &scope{parent: sc, scr: sc.scr, outer: env})
		sc.memos = append(sc.memos, subqueryMemo{sp: sp, res: res, err: err})
		return res, err
	}
}

// verdict is a condition's three-valued outcome.
type verdict uint8

const (
	vFalse verdict = iota
	vTrue
	vNull
)

// predicate is a compiled condition, stateless like a program; on error
// the verdict is meaningless.
type predicate func(env *rowEnv) (verdict, error)

// value is the verdict as a value: NULL, TRUE or FALSE.
func (v verdict) value() sqldb.Value {
	if v == vNull {
		return sqldb.Null()
	}
	return sqldb.Bool(v == vTrue)
}

func boolVerdict(b bool) verdict {
	if b {
		return vTrue
	}
	return vFalse
}

// foldPred evaluates a constant predicate once at compile time, as
// foldConst does a program.
func foldPred(p predicate, isConst bool) (predicate, bool) {
	if !isConst {
		return p, false
	}
	v, err := p(nil)
	return func(*rowEnv) (verdict, error) { return v, err }, true
}

// predProgram reads a predicate back as a value program.
func predProgram(p predicate, isConst bool) (program, bool) {
	return foldConst(func(env *rowEnv) (sqldb.Value, error) {
		v, err := p(env)
		if err != nil {
			return sqldb.Null(), err
		}
		return v.value(), nil
	}, isConst)
}

// cmpMask is a comparison operator as the set of sqldb.Compare results
// that pass it: bit c+1 for result c. comparisonMasks has no other
// operator, so its zero mask means "not a comparison".
type cmpMask uint8

var comparisonMasks = map[string]cmpMask{"=": 0b010, "<>": 0b101, "<": 0b001, "<=": 0b011, ">": 0b100, ">=": 0b110}

func (m cmpMask) test(c int) verdict { return verdict(m >> uint(c+1) & 1) }

// flip is the operator with its operands swapped: a < b is b > a.
func (m cmpMask) flip() cmpMask { return m&0b010 | m&0b001<<2 | m>>2&0b001 }

// compareVerdict is l <cmp> r under sqldb.Compare, NULL when either side
// is.
func compareVerdict(l, r sqldb.Value, m cmpMask) verdict {
	if l.IsNull() || r.IsNull() {
		return vNull
	}
	c, ok := sqldb.Compare(l, r)
	if !ok {
		return vNull
	}
	return m.test(c)
}

// cmpFloat orders two floats as sqldb.Compare orders two numbers: a NaN
// compares equal to everything.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// compilePred lowers a condition into a predicate bound under b. AND, OR,
// NOT, comparisons and IN compile natively; any other expression is its
// value program's verdict.
func compilePred(e sqlparse.Expr, b *binder) (predicate, bool) {
	switch x := e.(type) {
	case *sqlparse.Binary:
		if x.Op == "AND" || x.Op == "OR" {
			chain := splitChain(x, x.Op, nil)
			terms := make([]predicate, len(chain))
			allConst := true
			for i, t := range chain {
				var c bool
				terms[i], c = compilePred(t, b)
				allConst = allConst && c
			}
			return foldPred(logicList(x.Op == "AND", terms), allConst)
		}
		if m := comparisonMasks[x.Op]; m != 0 {
			return compileComparison(x, m, b)
		}
	case *sqlparse.Unary:
		if x.Op == "NOT" {
			p, c := compilePred(x.X, b)
			return foldPred(func(env *rowEnv) (verdict, error) {
				v, err := p(env)
				if v == vNull || err != nil {
					return vNull, err
				}
				return v ^ 1, nil
			}, c)
		}
	case *sqlparse.InExpr:
		return compileIn(x, b)
	}
	prog, c := compileExpr(e, b)
	return foldPred(func(env *rowEnv) (verdict, error) {
		v, err := prog(env)
		if v.IsNull() || err != nil {
			return vNull, err
		}
		return boolVerdict(truthy(v)), nil
	}, c)
}

// splitChain flattens a tree of one associative operator (AND or OR) into
// its operands, in tree order.
func splitChain(e sqlparse.Expr, op string, out []sqlparse.Expr) []sqlparse.Expr {
	if b, ok := e.(*sqlparse.Binary); ok && b.Op == op {
		out = splitChain(b.L, op, out)
		return splitChain(b.R, op, out)
	}
	return append(out, e)
}

// logicList is SQL AND (and) or OR over terms as one flat list, the
// nested operators' semantics exactly: terms run in order, an error stops
// the list, the deciding verdict (FALSE for AND, TRUE for OR) returns at
// once, and otherwise any NULL term makes the verdict NULL.
func logicList(and bool, terms []predicate) predicate {
	if len(terms) == 1 {
		return terms[0]
	}
	decide, rest := vTrue, vFalse
	if and {
		decide, rest = vFalse, vTrue
	}
	return func(env *rowEnv) (verdict, error) {
		out := rest
		for _, t := range terms {
			v, err := t(env)
			if err != nil {
				return vNull, err
			}
			if v == decide {
				return v, nil
			}
			if v == vNull {
				out = vNull
			}
		}
		return out, nil
	}
}

// compileComparison lowers l <cmp> r: a typed kernel where one matches,
// else both sides' programs and sqldb.Compare. Either way l is evaluated
// before r, and a NULL side makes the verdict NULL.
func compileComparison(x *sqlparse.Binary, m cmpMask, b *binder) (predicate, bool) {
	if p, c, ok := compileDateCompare(x, m, b); ok {
		return p, c
	}
	if p, ok := compileColumnCompare(x, m, b); ok {
		return p, false
	}
	lp, lc := compileExpr(x.L, b)
	rp, rc := compileExpr(x.R, b)
	return foldPred(func(env *rowEnv) (verdict, error) {
		l, err := lp(env)
		if err != nil {
			return vNull, err
		}
		r, err := rp(env)
		if err != nil {
			return vNull, err
		}
		return compareVerdict(l, r, m), nil
	}, lc && rc)
}

// compileColumnCompare specializes a column of the current row compared
// with a string or number constant, on either side (neither can fail, so
// the order is moot). A string column against a string compares the
// strings, an Int or Float column against a number compares floats; any
// other pairing is sqldb.Compare's.
func compileColumnCompare(x *sqlparse.Binary, m cmpMask, b *binder) (predicate, bool) {
	col, lit := x.L, x.R
	if _, ok := col.(*sqlparse.ColumnRef); !ok {
		col, lit, m = x.R, x.L, m.flip()
	}
	cr, ok := col.(*sqlparse.ColumnRef)
	lp, isConst := compileExpr(lit, nil)
	if !ok || !isConst {
		return nil, false
	}
	lv, err := lp(nil)
	depth, ord := b.bind(cr)
	if err != nil || (lv.K != sqldb.KindString && !lv.IsNumeric()) || ord < 0 || depth != 0 {
		return nil, false
	}
	if lv.K == sqldb.KindString {
		s := lv.S
		return func(env *rowEnv) (verdict, error) {
			v := env.col(ord)
			if v.K == sqldb.KindString {
				return m.test(strings.Compare(v.S, s)), nil
			}
			return compareVerdict(v, lv, m), nil
		}, true
	}
	f, _ := lv.AsFloat()
	return func(env *rowEnv) (verdict, error) {
		v := env.col(ord)
		switch v.K {
		case sqldb.KindInt:
			return m.test(cmpFloat(float64(v.I), f)), nil
		case sqldb.KindFloat:
			return m.test(cmpFloat(v.F, f)), nil
		}
		return compareVerdict(v, lv, m), nil
	}, true
}

// compileIn lowers x [NOT] IN (...). The interpreter evaluates X, stops on
// a NULL X, then evaluates every list item (its errors surface) — or runs
// the subquery and takes its one column — before the membership verdict;
// every form keeps that order.
func compileIn(in *sqlparse.InExpr, b *binder) (predicate, bool) {
	if p, isConst, ok := compileToCharIn(in, b); ok {
		return p, isConst
	}
	xp, xc := compileExpr(in.X, b)
	items := make([]program, len(in.List))
	listConst := in.Select == nil
	for i, item := range in.List {
		var ic bool
		items[i], ic = compileExpr(item, b)
		listConst = listConst && ic
	}
	not := in.Not
	if listConst {
		// A constant list is evaluated once, here, up to its first error —
		// which a row raises only after its X evaluated clean and non-NULL,
		// exactly where the interpreter reaches it.
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
		return foldPred(func(env *rowEnv) (verdict, error) {
			xv, err := xp(env)
			if xv.IsNull() || err != nil {
				return vNull, err
			}
			if listErr != nil {
				return vNull, listErr
			}
			return inVerdict(xv, candidates, not), nil
		}, xc)
	}
	var run func(*rowEnv) (*Result, error)
	if in.Select != nil {
		run = compileSubquery(in.Select, b)
	}
	// Neither a subquery nor a list with a non-constant item is constant,
	// so env (and its scratch) is there.
	return func(env *rowEnv) (verdict, error) {
		xv, err := xp(env)
		if xv.IsNull() || err != nil {
			return vNull, err
		}
		scr := env.sc.scr
		mark := scr.vals.mark()
		defer scr.vals.release(mark)
		var candidates []sqldb.Value
		if run != nil {
			res, err := run(env)
			if err != nil {
				return vNull, err
			}
			if len(res.Columns) != 1 {
				return vNull, execErrf("IN subquery must return one column, got %d", len(res.Columns))
			}
			candidates = scr.vals.take(len(res.Rows))
			for i, r := range res.Rows {
				candidates[i] = r[0]
			}
		} else {
			candidates = scr.vals.take(len(items))
			for i, p := range items {
				if candidates[i], err = p(env); err != nil {
					return vNull, err
				}
			}
		}
		return inVerdict(xv, candidates, not), nil
	}, false
}

// inVerdict is x [NOT] IN candidates for a non-NULL x: a match decides,
// otherwise a NULL candidate makes the verdict NULL.
func inVerdict(xv sqldb.Value, candidates []sqldb.Value, not bool) verdict {
	sawNull := false
	for _, c := range candidates {
		if c.IsNull() {
			sawNull = true
			continue
		}
		if xv.Equal(c) {
			return boolVerdict(!not)
		}
	}
	if sawNull {
		return vNull
	}
	return boolVerdict(not)
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

// compileDateCompare specializes a date function compared with a literal,
// the shape of date filters and CASE pivots: TO_CHAR(x, 'format') <cmp>
// 'string' formats the date on the stack and compares bytes
// (toCharCompare), so a row costs no string, and YEAR, MONTH, QUARTER or
// DAY(x) <cmp> number compares the part parseDate reads as a number. The interpreter's order stands: x, then the
// function's NULL and error, then the comparison; a literal is never NULL
// and never fails. ok is false for any other shape.
func compileDateCompare(x *sqlparse.Binary, m cmpMask, b *binder) (p predicate, isConst, ok bool) {
	var arg sqlparse.Expr
	var cmp func(v sqldb.Value) (int, error)
	switch lit := x.R.(type) {
	case *sqlparse.StringLit:
		a, format, isToChar := toCharOf(x.L)
		if !isToChar {
			return nil, false, false
		}
		arg = a
		want := []byte(lit.Val)
		cmp = func(v sqldb.Value) (int, error) { return toCharCompare(v.String(), format, want) }
	case *sqlparse.NumberLit:
		fc, isCall := x.L.(*sqlparse.FuncCall)
		n, err := parseNumber(lit.Text)
		if !isCall || fc.Over != nil || fc.Star || len(fc.Args) != 1 || dateField(fc.Name) == nil || err != nil {
			return nil, false, false
		}
		arg = fc.Args[0]
		field := dateField(fc.Name)
		f, _ := n.AsFloat()
		cmp = func(v sqldb.Value) (int, error) {
			d, err := parseDate(v.String())
			return cmpFloat(float64(field(d)), f), err
		}
	default:
		return nil, false, false
	}
	xp, xc := compileExpr(arg, b)
	p, isConst = foldPred(func(env *rowEnv) (verdict, error) {
		xv, err := xp(env)
		if xv.IsNull() || err != nil {
			return vNull, err
		}
		c, err := cmp(xv)
		if err != nil {
			return vNull, err
		}
		return m.test(c), nil
	}, xc)
	return p, isConst, true
}

// compileToCharIn specializes TO_CHAR(x, 'format') [NOT] IN ('a', ...)
// with string-literal items the same way: no item is NULL or fails, so the
// verdict is whether one equals the formatted bytes (toCharIn).
func compileToCharIn(in *sqlparse.InExpr, b *binder) (p predicate, isConst, ok bool) {
	arg, format, ok := toCharOf(in.X)
	if !ok || in.Select != nil {
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
	p, isConst = foldPred(func(env *rowEnv) (verdict, error) {
		xv, err := xp(env)
		if xv.IsNull() || err != nil {
			return vNull, err
		}
		found, err := toCharIn(xv.String(), format, lits)
		if err != nil {
			return vNull, err
		}
		return boolVerdict(found != not), nil
	}, xc)
	return p, isConst, true
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
	// A CASE with an operand compares it with each WHEN value; a searched
	// CASE takes the first WHEN whose condition is TRUE.
	conds := make([]program, len(ce.Whens))
	preds := make([]predicate, len(ce.Whens))
	thens := make([]program, len(ce.Whens))
	for i, w := range ce.Whens {
		var cc, tc bool
		if operand != nil {
			conds[i], cc = compileExpr(w.Cond, b)
		} else {
			preds[i], cc = compilePred(w.Cond, b)
		}
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
			for i, pred := range preds {
				v, err := pred(env)
				if err != nil {
					return sqldb.Null(), err
				}
				if v == vTrue {
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
