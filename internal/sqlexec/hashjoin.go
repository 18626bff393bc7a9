package sqlexec

import (
	"math"
	"strconv"

	"genedit/internal/sqldb"
	"genedit/internal/sqlparse"
)

// Joins. compileJoin splits the ON clause once per plan: equality conjuncts
// whose two sides bind entirely to the left and right inputs become hash
// keys, compiled against each input's layout; the conjuncts after them stay
// a residual over the joined row; and the whole ON is compiled too, for the
// nested loop. runJoin hashes the smaller input and probes with the other —
// turning the O(n·m) nested-loop scan into O(n+m) for the FK joins that
// dominate the workload — and runs the nested loop for a join without keys
// or whenever the hash plan is unsound for its inputs.
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
			case bindColumn(n, left) >= 0:
				side = mergeSide(side, sideLeft)
			case bindColumn(n, right) >= 0:
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

// joinPlan is a join's compiled ON clause.
type joinPlan struct {
	kind        sqlparse.JoinKind
	left, right *fromPlan
	on          []program // ON as one conjunct over the joined row; empty without ON
	leftKeys    []program // the hashable prefix of ON's conjuncts, per side
	rightKeys   []program
	residual    []program // the conjuncts after it, over the joined row
}

// compileJoin compiles j's ON clause; b binds the joined row.
func compileJoin(j *sqlparse.JoinExpr, left, right *fromPlan, b *binder) *joinPlan {
	jp := &joinPlan{kind: j.Kind, left: left, right: right}
	if j.On == nil {
		return jp
	}
	on, _ := compileExpr(j.On, b)
	jp.on = []program{on}
	conds, residual := analyzeJoinOn(j.On, left.cols, right.cols)
	if len(conds) == 0 {
		return jp
	}
	side := func(cols []bindCol) *binder { return &binder{db: b.db, ss: b.ss, cols: cols, outer: b.outer} }
	for _, c := range conds {
		lp, _ := compileExpr(c.leftKey, side(left.cols))
		rp, _ := compileExpr(c.rightKey, side(right.cols))
		jp.leftKeys = append(jp.leftKeys, lp)
		jp.rightKeys = append(jp.rightKeys, rp)
	}
	for _, r := range residual {
		p, _ := compileExpr(r, b)
		jp.residual = append(jp.residual, p)
	}
	return jp
}

// runJoin joins two materialized inputs: by hash when the plan has keys
// and both inputs have rows, else — or when the hash plan is unsound for
// these inputs — by the nested loop, which is hash emission with one bucket
// holding every right row.
func (e *Executor) runJoin(fp *fromPlan, left, right relation, sc *scope) (relation, error) {
	jp := fp.join
	if !e.noHashJoin && len(jp.leftKeys) > 0 && len(left.rows) > 0 && len(right.rows) > 0 {
		if out, handled, err := e.hashJoin(jp, left, right, fp.cols, sc); handled {
			return out, err
		}
	}
	scr := sc.scr
	first := scr.ints.take(len(left.rows))
	next := scr.ints.take(len(right.rows))
	head := -1
	if len(right.rows) > 0 {
		head = 0
	}
	for li := range first {
		first[li] = head
	}
	for ri := range next {
		next[ri] = ri + 1
	}
	if len(next) > 0 {
		next[len(next)-1] = -1
	}
	return e.emitJoin(jp.kind, left, right, fp.cols, sc, first, next, jp.on, len(left.rows))
}

// joinKeys evaluates the per-row key programs for one input. keys[i] is
// nil when any key value of row i is NULL (the row can never hash-match).
// Every program is evaluated for every row — no early exit on NULL — so
// an evaluation error in a later key conjunct is detected (and triggers the
// nested-loop fallback) exactly as the nested loop, which does not
// short-circuit AND on NULL, would have surfaced it. hasNull reports
// whether any row carried a NULL key. keys and its slots are scratch; key
// programs bind no enclosing row, so env carries none.
func joinKeys(rows []sqldb.Row, progs []program, env *rowEnv) (keys []sqldb.Row, classes []int, hasNull bool, err error) {
	scr := env.sc.scr
	keys = scr.rows.take(len(rows))
	classes = make([]int, len(progs))
	// One backing array feeds every row's key slots. Slots of NULL-keyed
	// rows go unused, which costs nothing.
	backing := scr.vals.take(len(rows) * len(progs))
	for i, row := range rows {
		env.row = row
		vals := backing[i*len(progs) : (i+1)*len(progs) : (i+1)*len(progs)]
		rowNull := false
		for j, p := range progs {
			v, err := p(env)
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
func (e *Executor) hashJoin(jp *joinPlan, left, right relation, cols []bindCol, sc *scope) (relation, bool, error) {
	// A key-evaluation error falls back rather than failing: the nested loop
	// may legitimately never evaluate that conjunct for the erroring row
	// (AND short-circuits on false, and unmatched pairs skip later
	// conjuncts).
	env := &rowEnv{exec: e, sc: sc}
	leftKeys, leftClasses, leftNull, err := joinKeys(left.rows, jp.leftKeys, env)
	if err != nil {
		return relation{}, false, nil
	}
	rightKeys, rightClasses, rightNull, err := joinKeys(right.rows, jp.rightKeys, env)
	if err != nil {
		return relation{}, false, nil
	}
	// SQL AND does not short-circuit on NULL: for a pair whose key conjunct
	// is NULL the nested loop still evaluates the residual conjuncts, whose
	// errors must surface. The hash path never visits NULL-keyed pairs, so
	// with residuals present and any NULL key it cannot reproduce that —
	// fall back.
	if len(jp.residual) > 0 && (leftNull || rightNull) {
		return relation{}, false, nil
	}
	classes := make([]int, len(jp.leftKeys))
	for i := range classes {
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
	// (left-major, right rows in input order). Buckets and chains are
	// scratch.
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

	// Each left row's first candidate replaces its bucket; most is the
	// number of candidate pairs, every one of which may match.
	most := 0
	for li, b := range leftBucket {
		leftBucket[li] = -1
		if b >= 0 {
			most += pairs[b]
			leftBucket[li] = head[b]
		}
	}
	out, err := e.emitJoin(jp.kind, left, right, cols, sc, leftBucket, next, jp.residual, most)
	return out, true, err
}

// emitJoin emits a join's rows in nested-loop order: left-major, each left
// row's candidate right rows in input order (first[li], then next[ri] until
// -1), then the NULL-extended rows of the outer sides. A candidate pair
// matches when every conjunct is truthy, evaluated as SQL AND over the
// conjuncts in tree order: an error stops the join, a definite false stops
// the pair, and a NULL rejects it while later conjuncts still run (their
// errors surface). most sizes the output; the rows of candidate pairs and
// outer rows past it grow it.
//
// Joined rows are scratch: the enclosing core copies what it keeps into its
// projected output rows before it releases the scratch, so no Result holds
// a joined row. A pair the conjuncts reject was never emitted, so its row
// serves the next pair.
func (e *Executor) emitJoin(kind sqlparse.JoinKind, left, right relation, cols []bindCol, sc *scope,
	first, next []int, conj []program, most int) (relation, error) {

	scr := sc.scr
	leftOuter := kind == sqlparse.LeftJoin || kind == sqlparse.FullJoin
	rightOuter := kind == sqlparse.RightJoin || kind == sqlparse.FullJoin
	if leftOuter {
		most += len(left.rows)
	}
	var rightMatched []bool
	if rightOuter {
		most += len(right.rows)
		rightMatched = make([]bool, len(right.rows))
	}
	// joined lays out a, pad NULLs, then b — a candidate pair, or one side
	// with the other NULL-extended.
	var spare sqldb.Row
	joined := func(a sqldb.Row, pad int, b sqldb.Row) sqldb.Row {
		n := len(a) + pad + len(b)
		row := spare
		spare = nil
		if row == nil || len(row) != n {
			row = scr.vals.take(n)
		}
		copy(row, a)
		clear(row[len(a) : len(a)+pad])
		copy(row[len(a)+pad:], b)
		return row
	}

	out := relation{cols: cols, rows: scr.rows.take(most)[:0]}
	env := &rowEnv{exec: e, sc: sc, outer: sc.outer}
	for li, lr := range left.rows {
		leftMatched := false
		for ri := first[li]; ri >= 0; ri = next[ri] {
			row := joined(lr, 0, right.rows[ri])
			ok := true
			env.row = row
			for _, p := range conj {
				v, err := p(env)
				if err != nil {
					return relation{}, err
				}
				if v.IsNull() {
					ok = false
					continue
				}
				if !truthy(v) {
					ok = false
					break
				}
			}
			if !ok {
				spare = row
				continue
			}
			leftMatched = true
			if rightMatched != nil {
				rightMatched[ri] = true
			}
			out.rows = append(out.rows, row)
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
	return out, nil
}
