package sqlexec

import (
	"sort"
	"strings"

	"genedit/internal/sqldb"
	"genedit/internal/sqlparse"
)

// Statement plans: the compile-once layer above the expression programs in
// compile.go, and the only way a statement runs. A plan binds every clause
// of a statement against statically known relation layouts (base tables,
// CTEs, derived tables, the rows enclosing a subquery) and runs the clauses
// in the interpreter's order — FROM, WHERE, star expansion, GROUP BY and
// HAVING, window calls, ORDER BY targets, projection, DISTINCT, a stable
// sort, OFFSET and LIMIT — so errors surface in the same order with the same
// text. DISTINCT and GROUP BY hash length-prefixed composite keys.
//
// Compilation never fails. What the interpreter raises when it reaches a
// clause — an unknown table, a star over an unknown qualifier, an ORDER BY
// position out of range — is recorded in the plan and raised at that point;
// the layout of a part that always errors is empty, since nothing after it
// runs.

type stmtPlan struct {
	ctes     []ctePlan
	core     *corePlan
	compound []compoundPlan
	orderBy  []sqlparse.OrderItem // a compound statement's, over its output columns
	limit    *foldedInt
	offset   *foldedInt
}

type ctePlan struct {
	src *sqlparse.CTE
	sub *stmtPlan
}

type compoundPlan struct {
	op   sqlparse.CompoundOp
	core *corePlan
}

// foldedInt is a LIMIT/OFFSET expression folded at plan time; err is raised
// only at the clause's evaluation point, exactly as the interpreter would.
type foldedInt struct {
	n   int64
	err error
}

func foldLimit(e sqlparse.Expr) *foldedInt {
	if e == nil {
		return nil
	}
	n, err := staticInt(e)
	return &foldedInt{n: n, err: err}
}

type corePlan struct {
	from       *fromPlan
	where      program // nil without a WHERE clause
	starErr    error   // star expansion's error, raised after WHERE
	outCols    []string
	aggregated bool
	groupBy    []program
	having     program
	windows    []*windowPlan // window calls, computed after HAVING
	orderErr   error         // an ORDER BY position out of range, raised after the windows
	projs      []program
	orderBy    []sqlparse.OrderItem
	orderProgs []program // per ORDER BY item; nil where orderIdx[i] >= 0
	orderIdx   []int
	distinct   bool
	limit      *foldedInt
	offset     *foldedInt
}

type fromPlan struct {
	cols []bindCol
	leaf *leafPlan // exactly one of leaf/join is set
	join *joinPlan
}

type leafPlan struct {
	noFrom bool
	table  string    // base table name ("" when CTE or derived)
	cte    string    // CTE name ("" when not a CTE)
	sub    *stmtPlan // derived table
	err    error     // an unknown table, raised when the leaf is reached
}

// staticScope tracks CTE column layouts during compilation, mirroring the
// runtime scope chain (lookup is case-insensitive, inner shadows outer,
// CTEs shadow base tables).
type staticScope struct {
	parent *staticScope
	ctes   map[string][]string
}

func (s *staticScope) lookup(name string) ([]string, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if cols, ok := cur.ctes[strings.ToUpper(name)]; ok {
			return cols, true
		}
	}
	return nil, false
}

func (s *staticScope) child() *staticScope {
	return &staticScope{parent: s, ctes: make(map[string][]string)}
}

// compileStmt lowers a parsed top-level statement into an executable plan.
func compileStmt(db *sqldb.Database, stmt *sqlparse.SelectStmt) *stmtPlan {
	sp, _ := compileStmtIn(db, stmt, nil, nil)
	return sp
}

// compileStmtIn compiles one statement under a static CTE scope, for the
// enclosing row outer binds (nil outside a subquery). It returns the
// statement's output layout, which a CTE without a declared column list or
// a derived table takes.
func compileStmtIn(db *sqldb.Database, stmt *sqlparse.SelectStmt, ss *staticScope, outer *binder) (*stmtPlan, []string) {
	sp := &stmtPlan{}
	if len(stmt.With) > 0 {
		ss = ss.child()
		for i := range stmt.With {
			cte := &stmt.With[i]
			sub, cols := compileStmtIn(db, cte.Select, ss, outer)
			if len(cte.Columns) > 0 {
				// A declared arity that does not match the select's is
				// raised by runStmt after the CTE's select has run, where
				// the interpreter raises it.
				cols = cte.Columns
			}
			ss.ctes[strings.ToUpper(cte.Name)] = cols
			sp.ctes = append(sp.ctes, ctePlan{src: cte, sub: sub})
		}
	}

	if len(stmt.Compound) == 0 {
		core, cols := compileCore(db, stmt.Core, ss, outer, stmt.OrderBy, stmt.Limit, stmt.Offset)
		sp.core = core
		return sp, cols
	}

	core, cols := compileCore(db, stmt.Core, ss, outer, nil, nil, nil)
	sp.core = core
	for _, part := range stmt.Compound {
		pc, _ := compileCore(db, part.Core, ss, outer, nil, nil, nil)
		sp.compound = append(sp.compound, compoundPlan{op: part.Op, core: pc})
	}
	sp.orderBy = stmt.OrderBy
	sp.limit = foldLimit(stmt.Limit)
	sp.offset = foldLimit(stmt.Offset)
	return sp, cols
}

// compileCore compiles one select core, plus the statement-level ORDER BY /
// LIMIT / OFFSET of a statement without compound arms. It returns the
// core's output names.
func compileCore(db *sqldb.Database, core *sqlparse.SelectCore, ss *staticScope, outer *binder,
	orderBy []sqlparse.OrderItem, limit, offset sqlparse.Expr) (*corePlan, []string) {

	cp := &corePlan{distinct: core.Distinct, orderBy: orderBy, limit: foldLimit(limit), offset: foldLimit(offset)}
	cp.from = compileFrom(db, core.From, ss, outer)
	b := &binder{db: db, ss: ss, cols: cp.from.cols, outer: outer}
	if core.Where != nil {
		cp.where, _ = compileExpr(core.Where, b)
	}
	items, err := expandStars(core.Items, cp.from.cols)
	if err != nil {
		cp.starErr = err
		return cp, nil
	}
	cp.outCols = outputColumns(items)

	cp.aggregated = len(core.GroupBy) > 0 || core.Having != nil
	for _, item := range items {
		cp.aggregated = cp.aggregated || containsAggregate(item.Expr)
	}
	for _, o := range orderBy {
		cp.aggregated = cp.aggregated || containsAggregate(o.Expr)
	}

	for _, ge := range core.GroupBy {
		p, _ := compileExpr(ge, b)
		cp.groupBy = append(cp.groupBy, p)
	}
	if core.Having != nil {
		cp.having, _ = compileExpr(core.Having, b)
	}
	b.windows = collectWindowCalls(items, orderBy)
	for _, fc := range b.windows {
		cp.windows = append(cp.windows, compileWindow(fc, b))
	}

	orderExprs, orderIdx, err := resolveOrderTargets(orderBy, items)
	if err != nil {
		cp.orderErr = err
		return cp, cp.outCols
	}
	cp.projs = make([]program, len(items))
	for i, item := range items {
		cp.projs[i], _ = compileExpr(item.Expr, b)
	}
	cp.orderIdx = orderIdx
	cp.orderProgs = make([]program, len(orderBy))
	for i := range orderBy {
		if orderIdx[i] < 0 {
			cp.orderProgs[i], _ = compileExpr(orderExprs[i], b)
		}
	}
	return cp, cp.outCols
}

// compileFrom lowers a FROM clause into a scan/join tree with statically
// bound column layouts. Derived tables run for the core's enclosing row,
// as the oracle's evalFrom runs them.
func compileFrom(db *sqldb.Database, from sqlparse.TableExpr, ss *staticScope, outer *binder) *fromPlan {
	switch x := from.(type) {
	case nil:
		return &fromPlan{leaf: &leafPlan{noFrom: true}}
	case *sqlparse.TableName:
		qual := x.Alias
		if qual == "" {
			qual = x.Name
		}
		names, ok := ss.lookup(x.Name)
		leaf := &leafPlan{cte: x.Name}
		if !ok {
			leaf = &leafPlan{table: x.Name}
			if tbl := db.Table(x.Name); tbl != nil {
				names = make([]string, len(tbl.Columns))
				for i, c := range tbl.Columns {
					names[i] = c.Name
				}
			} else {
				leaf.err = execErrf("unknown table %q", x.Name)
			}
		}
		return &fromPlan{cols: qualify(qual, names), leaf: leaf}
	case *sqlparse.SubqueryTable:
		sub, cols := compileStmtIn(db, x.Select, ss, outer)
		return &fromPlan{cols: qualify(x.Alias, cols), leaf: &leafPlan{sub: sub}}
	case *sqlparse.JoinExpr:
		left := compileFrom(db, x.Left, ss, outer)
		right := compileFrom(db, x.Right, ss, outer)
		cols := append(append([]bindCol{}, left.cols...), right.cols...)
		return &fromPlan{cols: cols, join: compileJoin(x, left, right, &binder{db: db, ss: ss, cols: cols, outer: outer})}
	}
	return &fromPlan{leaf: &leafPlan{err: execErrf("unsupported FROM clause")}}
}

// qualify is the layout of a relation named qual with the given columns.
func qualify(qual string, names []string) []bindCol {
	cols := make([]bindCol, len(names))
	for i, c := range names {
		cols[i] = bindCol{qual: strings.ToUpper(qual), name: c}
	}
	return cols
}

// ---- runtime ----

// runStmt executes a compiled statement plan; sc carries the CTE rows, the
// scratch, and for a subquery its enclosing row.
func (e *Executor) runStmt(sp *stmtPlan, sc *scope) (*Result, error) {
	if len(sp.ctes) > 0 {
		sc = sc.child()
		for i := range sp.ctes {
			cte := sp.ctes[i].src
			res, err := e.runStmt(sp.ctes[i].sub, sc)
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

	res, err := e.runCore(sp.core, sc)
	if err != nil || len(sp.compound) == 0 {
		return res, err
	}
	for _, part := range sp.compound {
		next, err := e.runCore(part.core, sc)
		if err != nil {
			return nil, err
		}
		res, err = combine(part.op, res, next)
		if err != nil {
			return nil, err
		}
	}
	if err := orderResultByOutput(res, sp.orderBy); err != nil {
		return nil, err
	}
	return applyFolded(res, sp.limit, sp.offset)
}

// applyFolded applies folded LIMIT/OFFSET, raising any fold error at the
// clause's evaluation point (offset first, as the interpreter does).
func applyFolded(res *Result, limit, offset *foldedInt) (*Result, error) {
	if offset != nil {
		if offset.err != nil {
			return nil, offset.err
		}
		n := offset.n
		if n < 0 {
			n = 0
		}
		if int(n) >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[n:]
		}
	}
	if limit != nil {
		if limit.err != nil {
			return nil, limit.err
		}
		n := limit.n
		if n < 0 {
			n = 0
		}
		if int(n) < len(res.Rows) {
			res.Rows = res.Rows[:n]
		}
	}
	return res, nil
}

// projRow is one projected output row with its hidden ORDER BY keys.
type projRow struct {
	row  sqldb.Row
	keys sqldb.Row
}

// outputs are the rows a core projects: the rows WHERE kept, or the groups
// HAVING kept when the core aggregates. at points env at output i — a
// group's first row stands for its columns, an empty group reads as a row
// of NULLs — and sets the index its window values are read at.
type outputs struct {
	rows   []sqldb.Row
	groups [][]sqldb.Row // nil unless the core aggregates
	empty  sqldb.Row
}

func (o *outputs) len() int {
	if o.groups != nil {
		return len(o.groups)
	}
	return len(o.rows)
}

func (o *outputs) at(env *rowEnv, i int) {
	env.idx = i
	if o.groups == nil {
		env.row = o.rows[i]
		return
	}
	g := o.groups[i]
	env.group = g
	env.row = o.empty
	if len(g) > 0 {
		env.row = g[0]
	}
}

// runCore executes one compiled select core in the interpreter's clause
// order (and therefore its error order): FROM, WHERE, star expansion,
// grouping + HAVING over all groups, window calls, ORDER BY targets,
// projection over all survivors, DISTINCT, ORDER BY, LIMIT/OFFSET.
func (e *Executor) runCore(cp *corePlan, sc *scope) (*Result, error) {
	// Everything the core takes from the Query's scratch — survivors, the
	// group partition, window values, join intermediates under runFrom — is
	// dead once the projected rows exist; those are slab memory and the
	// only thing the Result keeps.
	scr := sc.scr
	mark := scr.mark()
	defer scr.release(mark)

	rel, err := e.runFrom(cp.from, sc)
	if err != nil {
		return nil, err
	}

	env := &rowEnv{exec: e, sc: sc, outer: sc.outer}

	if cp.where != nil {
		kept := scr.rows.take(len(rel.rows))[:0]
		for _, row := range rel.rows {
			env.row = row
			v, err := cp.where(env)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				kept = append(kept, row)
			}
		}
		rel.rows = kept
	}
	if cp.starErr != nil {
		return nil, cp.starErr
	}

	out := outputs{rows: rel.rows}
	if cp.aggregated {
		groups, err := e.runGroupBy(cp, rel, env)
		if err != nil {
			return nil, err
		}
		// HAVING over every group first, projection second — the
		// interpreter builds all group environments (evaluating HAVING)
		// before its projection loop, and error order must match.
		out = outputs{groups: groups, empty: scr.vals.take(len(rel.cols))}
		if cp.having != nil {
			kept := scr.groups.take(len(groups))[:0]
			for i, g := range groups {
				out.at(env, i)
				v, err := cp.having(env)
				if err != nil {
					return nil, err
				}
				if truthy(v) {
					kept = append(kept, g)
				}
			}
			out.groups = kept
		}
	}

	if len(cp.windows) > 0 {
		env.win = make([][]sqldb.Value, 0, len(cp.windows))
		for _, wp := range cp.windows {
			vals, err := wp.values(&out, env)
			if err != nil {
				return nil, err
			}
			env.win = append(env.win, vals)
		}
	}
	if cp.orderErr != nil {
		return nil, cp.orderErr
	}

	// Output rows are carved out of slab chunks: they escape into the
	// Result, so they are never pooled, but chunking cuts the two
	// allocations per projected row down to one per query, and the first
	// chunk is made at its final size. n is the number of projections, so
	// the survivors can be compacted off the slab when DISTINCT or
	// LIMIT/OFFSET discard most of them (see finishCore).
	n := out.len()
	var slab rowSlab
	slab.expect(n * (len(cp.projs) + len(cp.orderBy)))
	outs := make([]projRow, 0, n)
	for i := 0; i < n; i++ {
		out.at(env, i)
		row := slab.take(len(cp.projs))
		for j, p := range cp.projs {
			v, err := p(env)
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
		keys := slab.take(len(cp.orderBy))
		for j := range cp.orderBy {
			if cp.orderIdx[j] >= 0 {
				keys[j] = row[cp.orderIdx[j]]
				continue
			}
			v, err := cp.orderProgs[j](env)
			if err != nil {
				return nil, err
			}
			keys[j] = v
		}
		outs = append(outs, projRow{row: row, keys: keys})
	}
	return finishCore(cp, outs, n)
}

// finishCore applies a core's post-projection stages — DISTINCT, the
// stable ORDER BY sort, LIMIT/OFFSET, slab compaction — to the projected
// rows.
func finishCore(cp *corePlan, outs []projRow, projected int) (*Result, error) {
	if cp.distinct {
		seen := make(map[string]bool, len(outs))
		dedup := outs[:0:0]
		kbp := getKeyBuf()
		kb := *kbp
		for _, o := range outs {
			kb = sqldb.AppendCompositeKey(kb[:0], o.row)
			if k := string(kb); !seen[k] {
				seen[k] = true
				dedup = append(dedup, o)
			}
		}
		*kbp = kb
		putKeyBuf(kbp)
		outs = dedup
	}

	if len(cp.orderBy) > 0 {
		sort.SliceStable(outs, func(i, j int) bool {
			return compareOrderKeys(outs[i].keys, outs[j].keys, cp.orderBy) < 0
		})
	}

	res := &Result{Columns: cp.outCols}
	if len(outs) > 0 {
		res.Rows = make([]sqldb.Row, len(outs))
		for i, o := range outs {
			res.Rows[i] = o.row
		}
	}
	res, err := applyFolded(res, cp.limit, cp.offset)
	if err != nil {
		return nil, err
	}
	compactResultRows(res, projected, len(cp.projs))
	return res, nil
}

// compactResultRows copies a small surviving row set into fresh backing
// storage when DISTINCT or LIMIT/OFFSET discarded most of the
// projected rows. It runs after the final truncation so it sees the true
// survivor count. Without it a handful of retained rows would pin every
// mostly-dead rowSlab chunk they were carved from — plus the full
// row-header array the LIMIT/OFFSET reslice still references — for as long
// as the Result lives (which, through the generation cache, can be a long
// time).
func compactResultRows(res *Result, projected, width int) {
	if width <= 0 || len(res.Rows) == 0 || projected <= 4*len(res.Rows) {
		return
	}
	backing := make([]sqldb.Value, len(res.Rows)*width)
	rows := make([]sqldb.Row, len(res.Rows))
	for i, r := range res.Rows {
		row := backing[i*width : (i+1)*width : (i+1)*width]
		copy(row, r)
		rows[i] = row
	}
	res.Rows = rows
}

// runGroupBy partitions the relation by the compiled GROUP BY programs,
// preserving first-occurrence order. The partition lives in the Query's
// scratch: partition gives every row its group's id and every group its row
// count, then one backing array is cut into exact-capacity groups and the
// rows are dealt into them in input order.
func (e *Executor) runGroupBy(cp *corePlan, rel relation, env *rowEnv) ([][]sqldb.Row, error) {
	scr := env.sc.scr
	if len(cp.groupBy) == 0 {
		groups := scr.groups.take(1)
		groups[0] = rel.rows
		if groups[0] == nil {
			groups[0] = []sqldb.Row{} // an empty group must still read as aggregation context
		}
		return groups, nil
	}
	gids, counts, err := partition(&outputs{rows: rel.rows}, cp.groupBy, env)
	if err != nil {
		return nil, err
	}
	backing := scr.rows.take(len(rel.rows))
	groups := scr.groups.take(len(counts))
	off := 0
	for g, n := range counts {
		groups[g] = backing[off : off : off+n]
		off += n
	}
	for i, row := range rel.rows {
		groups[gids[i]] = append(groups[gids[i]], row)
	}
	return groups, nil
}

// partition evaluates progs at each output of out and gives every output
// the id of its key, ids in first-occurrence order (through the scratch's
// key map); counts[id] is the number of outputs with that id. Keys are
// length-prefixed (sqldb.AppendValueKey), so values containing delimiter
// bytes cannot alias across columns. ids and counts are scratch.
func partition(out *outputs, progs []program, env *rowEnv) (ids, counts []int, err error) {
	scr := env.sc.scr
	n := out.len()
	ids = scr.ints.take(n)
	counts = scr.ints.take(n)[:0]
	keys := scr.takeIDs()
	kbp := getKeyBuf()
	kb := *kbp
	defer func() {
		*kbp = kb
		putKeyBuf(kbp)
	}()
	for i := 0; i < n; i++ {
		out.at(env, i)
		kb = kb[:0]
		for _, p := range progs {
			v, err := p(env)
			if err != nil {
				return nil, nil, err
			}
			kb = sqldb.AppendValueKey(kb, v)
		}
		id, ok := keys[string(kb)]
		if !ok {
			id = len(counts)
			keys[string(kb)] = id
			counts = append(counts, 0)
		}
		ids[i] = id
		counts[id]++
	}
	scr.putIDs(keys)
	return ids, counts, nil
}

// runFrom materializes a compiled FROM tree.
func (e *Executor) runFrom(fp *fromPlan, sc *scope) (relation, error) {
	if fp.leaf != nil {
		return e.runLeaf(fp, sc)
	}
	left, err := e.runFrom(fp.join.left, sc)
	if err != nil {
		return relation{}, err
	}
	right, err := e.runFrom(fp.join.right, sc)
	if err != nil {
		return relation{}, err
	}
	return e.runJoin(fp, left, right, sc)
}

func (e *Executor) runLeaf(fp *fromPlan, sc *scope) (relation, error) {
	lp := fp.leaf
	var rows []sqldb.Row
	switch {
	case lp.err != nil:
		return relation{}, lp.err
	case lp.noFrom:
		rows = []sqldb.Row{{}}
	case lp.cte != "":
		rel := sc.lookup(lp.cte)
		if rel == nil {
			return relation{}, execErrf("unknown table %q", lp.cte)
		}
		rows = rel.rows
	case lp.sub != nil:
		res, err := e.runStmt(lp.sub, sc)
		if err != nil {
			return relation{}, err
		}
		rows = res.Rows
	default:
		tbl := e.db.Table(lp.table)
		if tbl == nil {
			return relation{}, execErrf("unknown table %q", lp.table)
		}
		rows = tbl.Rows
	}
	return relation{cols: fp.cols, rows: rows}, nil
}
