package sqlexec

import (
	"math"
	"strconv"
	"strings"

	"genedit/internal/sqldb"
	"genedit/internal/sqlparse"
)

// Hash equi-join. evalJoin detects equality conjuncts in the ON clause whose
// two sides bind entirely to the left and right inputs, builds a hash table
// on the smaller side, and probes with the other — turning the O(n·m)
// nested-loop scan into O(n+m) for the FK joins that dominate the workload.
// Non-equi conjuncts are kept as a residual filter on hash matches, and any
// condition the analysis cannot prove safe falls back to the nested loop.
//
// Parity with the nested loop is exact: a pair of rows matches the ON clause
// iff every AND-conjunct is truthy, NULL keys never match (SQL three-valued
// equality), and the join keys are bucketed by a canonicalization that is
// only used when every non-NULL key value in a column is of one comparison
// class (numeric, boolean, or string) — sqldb.Compare's cross-class
// equalities are not an equivalence relation, so mixed-class columns (and
// NaN keys, which Compare treats as equal to everything) fall back to the
// nested loop.

// equiCond is one `leftExpr = rightExpr` conjunct: leftKey binds only to
// left-input columns (or is constant) and rightKey only to right-input
// columns (or is constant).
type equiCond struct {
	leftKey  sqlparse.Expr
	rightKey sqlparse.Expr
}

// splitConjuncts flattens an AND tree into its conjuncts, in tree order.
func splitConjuncts(e sqlparse.Expr, out []sqlparse.Expr) []sqlparse.Expr {
	if b, ok := e.(*sqlparse.Binary); ok && b.Op == "AND" {
		out = splitConjuncts(b.L, out)
		return splitConjuncts(b.R, out)
	}
	return append(out, e)
}

// Expression side classification. A conjunct side is usable as a hash key
// only if evaluating it against just its own input produces the same value
// as evaluating it against the combined row, so a column ref that matches
// any left column is "left" (combined-row resolution prefers the left
// match), one matching only right columns is "right", and one resolving in
// neither (correlated/unknown) poisons the conjunct.
const (
	sideNone  = iota // no column refs: constant under both inputs
	sideLeft         // all refs bind to the left input
	sideRight        // all refs bind to the right input
	sideMixed        // refs from both sides, outer refs, or unsupported nodes
)

func refMatchesAny(cr *sqlparse.ColumnRef, cols []bindCol) bool {
	for _, c := range cols {
		if cr.Table != "" && !strings.EqualFold(cr.Table, c.qual) {
			continue
		}
		if strings.EqualFold(cr.Name, c.name) {
			return true
		}
	}
	return false
}

func mergeSide(a, b int) int {
	switch {
	case a == sideMixed || b == sideMixed:
		return sideMixed
	case a == sideNone:
		return b
	case b == sideNone || a == b:
		return a
	default:
		return sideMixed
	}
}

// exprSide classifies which input e's columns bind to. Subqueries, window
// calls and aggregates are rejected (sideMixed): they may read enclosing
// state the per-side environment does not carry.
func exprSide(e sqlparse.Expr, left, right []bindCol) int {
	side := sideNone
	sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
		switch n := x.(type) {
		case *sqlparse.SubqueryExpr, *sqlparse.ExistsExpr:
			side = sideMixed
		case *sqlparse.InExpr:
			if n.Select != nil {
				side = sideMixed
			}
		case *sqlparse.FuncCall:
			if n.Over != nil || isAggregateName(n.Name) {
				side = sideMixed
			}
		case *sqlparse.ColumnRef:
			switch {
			case refMatchesAny(n, left):
				side = mergeSide(side, sideLeft)
			case refMatchesAny(n, right):
				side = mergeSide(side, sideRight)
			default:
				side = sideMixed
			}
		}
	})
	return side
}

// analyzeJoinOn partitions the ON conjuncts into hashable equi-conditions
// and a residual evaluated per candidate pair. Only the longest hashable
// *prefix* of the conjunct list becomes equi-conditions: once a residual
// appears, every later conjunct stays residual too. This preserves the
// nested loop's short-circuit error semantics exactly — a residual is then
// evaluated for precisely the pairs whose earlier conjuncts (all equi, plus
// earlier residuals) passed, never skipped because an equi conjunct *after*
// it in the AND tree failed first under hashing.
func analyzeJoinOn(on sqlparse.Expr, left, right []bindCol) (conds []equiCond, residual []sqlparse.Expr) {
	for _, conj := range splitConjuncts(on, nil) {
		if len(residual) == 0 {
			if b, ok := conj.(*sqlparse.Binary); ok && b.Op == "=" {
				ls := exprSide(b.L, left, right)
				rs := exprSide(b.R, left, right)
				switch {
				case (ls == sideLeft || ls == sideNone) && (rs == sideRight || rs == sideNone) && !(ls == sideNone && rs == sideNone):
					conds = append(conds, equiCond{leftKey: b.L, rightKey: b.R})
					continue
				case (ls == sideRight || ls == sideNone) && (rs == sideLeft || rs == sideNone) && !(ls == sideNone && rs == sideNone):
					conds = append(conds, equiCond{leftKey: b.R, rightKey: b.L})
					continue
				}
			}
		}
		residual = append(residual, conj)
	}
	return conds, residual
}

// Key classification: sqldb.Compare equates values across kinds through two
// different lenses (numeric value, rendered string), which is not transitive
// at the edges, so hashing is only attempted when each key column is
// homogeneous. Within one class a canonical string key reproduces Compare
// exactly.
const (
	classEmpty = iota // no non-NULL values seen yet
	classNumeric
	classBool
	classString
	classMixed // mixed kinds or NaN: no sound canonical key, fall back
)

func keyClassOf(v sqldb.Value) int {
	switch v.K {
	case sqldb.KindInt, sqldb.KindFloat:
		if f, _ := v.AsFloat(); math.IsNaN(f) {
			return classMixed // Compare treats NaN as equal to every number
		}
		return classNumeric
	case sqldb.KindBool:
		return classBool
	default:
		return classString
	}
}

func mergeKeyClass(a, b int) int {
	switch {
	case a == classEmpty:
		return b
	case b == classEmpty || a == b:
		return a
	default:
		return classMixed
	}
}

// appendCanonicalKey appends the length-prefixed canonical rendering of v:
// two values within the same class share it iff sqldb.Compare orders them
// equal. NULL has no key (never matches). Numbers are formatted into a
// stack buffer, so building a key allocates nothing.
func appendCanonicalKey(dst []byte, v sqldb.Value, class int) []byte {
	switch class {
	case classNumeric:
		f, _ := v.AsFloat()
		if f == 0 {
			f = 0 // fold -0 into +0: Compare orders them equal
		}
		var num [32]byte
		return sqldb.AppendLengthPrefixed(dst, string(strconv.AppendFloat(num[:0], f, 'g', -1, 64)))
	case classBool:
		if v.B {
			return sqldb.AppendLengthPrefixed(dst, "1")
		}
		return sqldb.AppendLengthPrefixed(dst, "0")
	default:
		return sqldb.AppendLengthPrefixed(dst, v.String())
	}
}

// joinKeys evaluates the per-row key expressions for one input. keys[i] is
// nil when any key value of row i is NULL (the row can never hash-match).
// Every expression is evaluated for every row — no early exit on NULL — so
// an evaluation error in a later key conjunct is detected (and triggers the
// nested-loop fallback) exactly as the nested loop, which does not
// short-circuit AND on NULL, would have surfaced it. hasNull reports
// whether any row carried a NULL key. keys and its slots are scratch.
func (e *Executor) joinKeys(rows []sqldb.Row, cols []bindCol, exprs []sqlparse.Expr,
	sc *scope, outer *rowEnv) (keys []sqldb.Row, classes []int, hasNull bool, err error) {

	keys = sc.scr.rows.take(len(rows))
	classes = make([]int, len(exprs))
	env := &rowEnv{exec: e, sc: sc, cols: cols, outer: outer}
	// One backing array feeds every row's key slots. Slots of NULL-keyed
	// rows go unused, which costs nothing.
	backing := sc.scr.vals.take(len(rows) * len(exprs))
	for i, row := range rows {
		env.row = row
		vals := backing[i*len(exprs) : (i+1)*len(exprs) : (i+1)*len(exprs)]
		rowNull := false
		for j, ex := range exprs {
			v, err := evalExpr(ex, env)
			if err != nil {
				return nil, nil, false, err
			}
			if v.IsNull() {
				rowNull = true
				continue
			}
			classes[j] = mergeKeyClass(classes[j], keyClassOf(v))
			vals[j] = v
		}
		if rowNull {
			hasNull = true
		} else {
			keys[i] = sqldb.Row(vals)
		}
	}
	return keys, classes, hasNull, nil
}

// hashJoin executes the join via hash matching. It reports handled=false
// (with no side effects) when a sound hash plan is unavailable — a key
// evaluation error, or a key column mixing comparison classes — in which
// case the caller runs the nested loop.
func (e *Executor) hashJoin(j *sqlparse.JoinExpr, left, right relation, cols []bindCol,
	conds []equiCond, residual []sqlparse.Expr, sc *scope, outer *rowEnv) (relation, bool, error) {

	leftExprs := make([]sqlparse.Expr, len(conds))
	rightExprs := make([]sqlparse.Expr, len(conds))
	for i, c := range conds {
		leftExprs[i] = c.leftKey
		rightExprs[i] = c.rightKey
	}
	// A key-evaluation error falls back rather than failing: the nested loop
	// may legitimately never evaluate that conjunct for the erroring row
	// (AND short-circuits on false, and unmatched pairs skip later
	// conjuncts).
	leftKeys, leftClasses, leftNull, err := e.joinKeys(left.rows, left.cols, leftExprs, sc, outer)
	if err != nil {
		return relation{}, false, nil
	}
	rightKeys, rightClasses, rightNull, err := e.joinKeys(right.rows, right.cols, rightExprs, sc, outer)
	if err != nil {
		return relation{}, false, nil
	}
	// SQL AND does not short-circuit on NULL: for a pair whose key conjunct
	// is NULL the nested loop still evaluates the residual conjuncts, whose
	// errors must surface. The hash path never visits NULL-keyed pairs, so
	// with residuals present and any NULL key it cannot reproduce that —
	// fall back.
	if len(residual) > 0 && (leftNull || rightNull) {
		return relation{}, false, nil
	}
	classes := make([]int, len(conds))
	for i := range conds {
		classes[i] = mergeKeyClass(leftClasses[i], rightClasses[i])
		if classes[i] == classMixed {
			return relation{}, false, nil
		}
	}

	// Length-prefixed encoding (sqldb.AppendLengthPrefixed): a bare
	// delimiter would let key components containing the delimiter byte alias
	// across columns ("a\x1f"+"b" vs "a"+"\x1fb") and fabricate matches the
	// nested loop never produces. One pooled scratch buffer serves every
	// build and probe key; only the strings the bucket map interns escape.
	kbp := getKeyBuf()
	kb := *kbp
	defer func() {
		*kbp = kb
		putKeyBuf(kbp)
	}()

	// Each distinct key of the smaller input is a bucket; the matches of a
	// left row are the right rows of its bucket, chained in input order
	// (head[b] is the bucket's first right row, next[ri] the one after ri,
	// -1 ends a chain), so emission order is identical to the nested loop
	// (left-major, right rows in input order). Buckets, chains and the
	// joined relation's row headers are scratch.
	scr := sc.scr
	buckets := scr.takeIDs()
	leftBucket := scr.ints.take(len(left.rows))
	next := scr.ints.take(len(right.rows))
	head := scr.ints.take(min(len(left.rows), len(right.rows)))[:0]
	pairs := scr.ints.take(cap(head))[:0] // right rows per bucket
	// bucketOf is the bucket of a key: -1 for a key the smaller input does
	// not hold, a new bucket when it is the smaller input asking.
	bucketOf := func(vals sqldb.Row, smaller bool) int {
		kb = kb[:0]
		for i, v := range vals {
			kb = appendCanonicalKey(kb, v, classes[i])
		}
		b, ok := buckets[string(kb)]
		if !ok {
			if !smaller {
				return -1
			}
			b = len(head)
			buckets[string(kb)] = b
			head = append(head, -1)
			pairs = append(pairs, 0)
		}
		return b
	}
	assignLeft := func(smaller bool) {
		for li, vals := range leftKeys {
			leftBucket[li] = -1
			if vals != nil {
				leftBucket[li] = bucketOf(vals, smaller)
			}
		}
	}
	chainRight := func(smaller bool) { // back to front, so each chain runs in input order
		for ri := len(rightKeys) - 1; ri >= 0; ri-- {
			if rightKeys[ri] == nil {
				continue
			}
			if b := bucketOf(rightKeys[ri], smaller); b >= 0 {
				next[ri] = head[b]
				head[b] = ri
				pairs[b]++
			}
		}
	}
	if len(left.rows) <= len(right.rows) {
		assignLeft(true)
		chainRight(false)
	} else {
		chainRight(true)
		assignLeft(false)
	}
	scr.putIDs(buckets)

	leftOuter := j.Kind == sqlparse.LeftJoin || j.Kind == sqlparse.FullJoin
	rightOuter := j.Kind == sqlparse.RightJoin || j.Kind == sqlparse.FullJoin
	// The most rows the join can emit: every candidate pair, plus the
	// NULL-extended rows of the outer sides.
	most := 0
	for _, b := range leftBucket {
		if b >= 0 {
			most += pairs[b]
		}
	}
	if leftOuter {
		most += len(left.rows)
	}
	var rightMatched []bool
	if rightOuter {
		most += len(right.rows)
		rightMatched = make([]bool, len(right.rows))
	}

	// Joined rows are slab memory (never reused once emitted): a later
	// clause may copy their values into the Result. A pair the residual
	// rejects was never emitted, so its row serves the next pair. joined
	// lays out a, pad NULLs, then b — a matched pair, or one side with the
	// other NULL-extended.
	var slab rowSlab
	slab.expect(most * (len(left.cols) + len(right.cols)))
	var spare sqldb.Row
	joined := func(a sqldb.Row, pad int, b sqldb.Row) sqldb.Row {
		n := len(a) + pad + len(b)
		row := spare
		spare = nil
		if row == nil || len(row) != n {
			row = slab.take(n)
		}
		copy(row, a)
		clear(row[len(a) : len(a)+pad])
		copy(row[len(a)+pad:], b)
		return row
	}

	out := relation{cols: cols, rows: scr.rows.take(most)[:0]}
	env := &rowEnv{exec: e, sc: sc, cols: cols, outer: outer}
	for li, lr := range left.rows {
		leftMatched := false
		ri := -1
		if b := leftBucket[li]; b >= 0 {
			ri = head[b]
		}
		for ; ri >= 0; ri = next[ri] {
			combined := joined(lr, 0, right.rows[ri])
			ok := true
			env.row = combined
			for _, rexpr := range residual {
				v, err := evalExpr(rexpr, env)
				if err != nil {
					return relation{}, true, err
				}
				if v.IsNull() {
					// AND continues past NULL: the pair cannot match, but
					// later conjuncts are still evaluated (their errors
					// surface) — only a definite false stops the chain.
					ok = false
					continue
				}
				if !truthy(v) {
					ok = false
					break
				}
			}
			if !ok {
				spare = combined
				continue
			}
			leftMatched = true
			if rightMatched != nil {
				rightMatched[ri] = true
			}
			out.rows = append(out.rows, combined)
		}
		if !leftMatched && leftOuter {
			out.rows = append(out.rows, joined(lr, len(right.cols), nil))
		}
	}
	if rightOuter {
		for ri, rr := range right.rows {
			if !rightMatched[ri] {
				out.rows = append(out.rows, joined(nil, len(left.cols), rr))
			}
		}
	}
	return out, true, nil
}
