package sqlexec

import (
	"strings"

	"genedit/internal/sqldb"
	"genedit/internal/sqlparse"
)

// Value-level semantics of literals, operators and predicates: the compiled
// programs and the test oracle call these same helpers, so the two engines
// cannot disagree on a value, only on which values they compute.

func parseNumber(text string) (sqldb.Value, error) {
	if !strings.ContainsAny(text, ".eE") {
		v := sqldb.Str(text)
		if i, ok := v.AsInt(); ok {
			return sqldb.Int(i), nil
		}
	}
	v := sqldb.Str(text)
	f, ok := v.AsFloat()
	if !ok {
		return sqldb.Null(), execErrf("bad numeric literal %q", text)
	}
	return sqldb.Float(f), nil
}

// applyUnary is the value-level semantics of a prefix operator, shared by
// the compiled programs and the oracle (interp_test.go).
func applyUnary(op string, v sqldb.Value) (sqldb.Value, error) {
	switch op {
	case "-":
		if v.IsNull() {
			return sqldb.Null(), nil
		}
		if v.K == sqldb.KindInt {
			return sqldb.Int(-v.I), nil
		}
		f, ok := v.AsFloat()
		if !ok {
			return sqldb.Null(), execErrf("cannot negate %q", v.String())
		}
		return sqldb.Float(-f), nil
	case "+":
		return v, nil
	case "NOT":
		if v.IsNull() {
			return sqldb.Null(), nil
		}
		return sqldb.Bool(!truthy(v)), nil
	}
	return sqldb.Null(), execErrf("unsupported unary operator %q", op)
}

// applyBinary is the value-level semantics of a non-AND/OR infix operator,
// shared by the compiled programs and the oracle (interp_test.go).
func applyBinary(op string, l, r sqldb.Value) (sqldb.Value, error) {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return compareVerdict(l, r, comparisonMasks[op]).value(), nil
	case "||":
		if l.IsNull() || r.IsNull() {
			return sqldb.Null(), nil
		}
		return sqldb.Str(l.String() + r.String()), nil
	case "+", "-", "*", "/", "%":
		return applyArith(op, l, r)
	}
	return sqldb.Null(), execErrf("unsupported operator %q", op)
}

// applyArith is the arithmetic of + - * / %: integer when both operands
// are, float otherwise, NULL on a NULL operand or a zero divisor.
func applyArith(op string, l, r sqldb.Value) (sqldb.Value, error) {
	if l.IsNull() || r.IsNull() {
		return sqldb.Null(), nil
	}
	bothInt := l.K == sqldb.KindInt && r.K == sqldb.KindInt
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return sqldb.Null(), execErrf("non-numeric operand for %q: %q, %q", op, l.String(), r.String())
	}
	if bothInt {
		switch op {
		case "+":
			return sqldb.Int(l.I + r.I), nil
		case "-":
			return sqldb.Int(l.I - r.I), nil
		case "*":
			return sqldb.Int(l.I * r.I), nil
		case "/":
			if r.I == 0 {
				return sqldb.Null(), nil
			}
			return sqldb.Int(l.I / r.I), nil
		case "%":
			if r.I == 0 {
				return sqldb.Null(), nil
			}
			return sqldb.Int(l.I % r.I), nil
		}
	}
	switch op {
	case "+":
		return sqldb.Float(lf + rf), nil
	case "-":
		return sqldb.Float(lf - rf), nil
	case "*":
		return sqldb.Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return sqldb.Null(), nil
		}
		return sqldb.Float(lf / rf), nil
	case "%":
		// The float remainder is taken on the truncated operands, so a
		// divisor in (-1, 1) is a zero divisor too.
		if int64(rf) == 0 {
			return sqldb.Null(), nil
		}
		return sqldb.Float(float64(int64(lf) % int64(rf))), nil
	}
	return sqldb.Null(), execErrf("unsupported arithmetic operator %q", op)
}

// likeMatch implements SQL LIKE with % (any run) and _ (single char)
// wildcards, case-folded by the caller.
func likeMatch(s, pattern string) bool {
	// Dynamic programming over pattern/string positions.
	m, n := len(pattern), len(s)
	prev := make([]bool, n+1)
	curr := make([]bool, n+1)
	prev[0] = true
	for i := 1; i <= m; i++ {
		pc := pattern[i-1]
		if pc == '%' {
			curr[0] = prev[0]
		} else {
			curr[0] = false
		}
		for j := 1; j <= n; j++ {
			switch pc {
			case '%':
				curr[j] = curr[j-1] || prev[j]
			case '_':
				curr[j] = prev[j-1]
			default:
				curr[j] = prev[j-1] && s[j-1] == pc
			}
		}
		prev, curr = curr, prev
	}
	return prev[n]
}

// truthy maps a value to filter acceptance: NULL and FALSE reject.
func truthy(v sqldb.Value) bool {
	switch v.K {
	case sqldb.KindNull:
		return false
	case sqldb.KindBool:
		return v.B
	case sqldb.KindInt:
		return v.I != 0
	case sqldb.KindFloat:
		return v.F != 0
	case sqldb.KindString:
		return v.S != ""
	}
	return false
}

// containsAggregate reports whether the expression contains a non-windowed
// aggregate call.
func containsAggregate(e sqlparse.Expr) bool {
	found := false
	sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
		if fc, ok := x.(*sqlparse.FuncCall); ok && fc.Over == nil && isAggregateName(fc.Name) {
			found = true
		}
	})
	return found
}

func isAggregateName(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "TOTAL":
		return true
	}
	return false
}

// collectWindowCalls gathers distinct windowed function calls from the
// projection and ORDER BY expressions.
func collectWindowCalls(items []sqlparse.SelectItem, orderBy []sqlparse.OrderItem) []*sqlparse.FuncCall {
	var calls []*sqlparse.FuncCall
	add := func(e sqlparse.Expr) {
		sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
			if fc, ok := x.(*sqlparse.FuncCall); ok && fc.Over != nil {
				calls = append(calls, fc)
			}
		})
	}
	for _, item := range items {
		add(item.Expr)
	}
	for _, o := range orderBy {
		add(o.Expr)
	}
	return calls
}
