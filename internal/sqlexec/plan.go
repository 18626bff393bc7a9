package sqlexec

import (
	"sort"
	"strings"

	"genedit/internal/sqldb"
	"genedit/internal/sqlparse"
)

// Statement plans: the compile-once layer above the expression programs in
// compile.go. A plan binds every clause of a statement against statically
// known relation layouts (base tables, CTEs, derived tables) and runs the
// clauses in the interpreter's order — WHERE after the join, a stable sort
// before LIMIT — adding one plan-level optimization the interpreter does
// not perform: hash DISTINCT and GROUP BY keyed by length-prefixed
// composite keys.
//
// Anything the compiler cannot bind statically — window functions in the
// projection, star expansion over unknown layouts, unknown tables, ORDER BY
// targets that do not resolve — falls back to the tree-walking interpreter
// at statement or core granularity, so error timing and text stay exact.

type stmtPlan struct {
	stmt     *sqlparse.SelectStmt // source AST, for fallback
	fallback bool                 // run the whole statement through the interpreter
	ctes     []ctePlan
	core     *corePlan
	compound []compoundPlan
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
	// Source clauses, kept for core-granularity interpreter fallback.
	src                 *sqlparse.SelectCore
	srcOrderBy          []sqlparse.OrderItem
	srcLimit, srcOffset sqlparse.Expr
	fallback            bool

	from       *fromPlan
	where      program // nil without a WHERE clause
	items      []sqlparse.SelectItem
	outCols    []string
	aggregated bool
	groupBy    []program
	having     program
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
}

type joinPlan struct {
	src         *sqlparse.JoinExpr
	left, right *fromPlan
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

// compileStmt lowers a parsed statement into an executable plan. It never
// fails: parts the compiler cannot bind are marked for interpreter
// fallback, which reproduces results and error timing exactly.
func compileStmt(db *sqldb.Database, stmt *sqlparse.SelectStmt) *stmtPlan {
	sp, _, _ := compileStmtScoped(db, stmt, nil)
	return sp
}

// compileStmtScoped compiles one statement under a static CTE scope. The
// returned columns are the statement's output layout; ok reports whether
// that layout is statically known (required when the statement feeds a CTE
// without a declared column list, or a derived table).
func compileStmtScoped(db *sqldb.Database, stmt *sqlparse.SelectStmt, ss *staticScope) (*stmtPlan, []string, bool) {
	sp := &stmtPlan{stmt: stmt}
	if len(stmt.With) > 0 {
		ss = ss.child()
		for i := range stmt.With {
			cte := &stmt.With[i]
			sub, subCols, subOK := compileStmtScoped(db, cte.Select, ss)
			cols := subCols
			colsOK := subOK
			if len(cte.Columns) > 0 {
				// A declared arity that does not match the select's is
				// raised by runStmt after the CTE's select has run, where
				// the interpreter raises it.
				cols = cte.Columns
				colsOK = true
			}
			if !colsOK {
				sp.fallback = true
				return sp, nil, false
			}
			ss.ctes[strings.ToUpper(cte.Name)] = cols
			sp.ctes = append(sp.ctes, ctePlan{src: cte, sub: sub})
		}
	}

	if len(stmt.Compound) == 0 {
		core, cols, ok := compileCore(db, stmt.Core, ss, stmt.OrderBy, stmt.Limit, stmt.Offset)
		sp.core = core
		return sp, cols, ok
	}

	core, cols, ok := compileCore(db, stmt.Core, ss, nil, nil, nil)
	sp.core = core
	for _, part := range stmt.Compound {
		pc, _, _ := compileCore(db, part.Core, ss, nil, nil, nil)
		sp.compound = append(sp.compound, compoundPlan{op: part.Op, core: pc})
	}
	sp.limit = foldLimit(stmt.Limit)
	sp.offset = foldLimit(stmt.Offset)
	return sp, cols, ok
}

// compileCore compiles one select core (plus the statement-level ORDER BY /
// LIMIT / OFFSET that evalCoreFull owns). The returned columns are the
// core's output names; ok reports whether they are statically known.
func compileCore(db *sqldb.Database, core *sqlparse.SelectCore, ss *staticScope,
	orderBy []sqlparse.OrderItem, limit, offset sqlparse.Expr) (*corePlan, []string, bool) {

	cp := &corePlan{src: core, srcOrderBy: orderBy, srcLimit: limit, srcOffset: offset}
	bail := func() (*corePlan, []string, bool) {
		cp.fallback = true
		return cp, nil, false
	}

	from, ok := compileFrom(db, core.From, ss)
	if !ok {
		return bail()
	}
	items, err := expandStars(core.Items, from.cols)
	if err != nil {
		return bail()
	}
	outCols := outputColumns(items)

	// Window calls in the projection or ORDER BY need the interpreter's
	// per-output-row environments; fall back (output layout stays known).
	for _, item := range items {
		if hasWindowCall(item.Expr) {
			cp.fallback = true
			return cp, outCols, true
		}
	}
	for _, o := range orderBy {
		if hasWindowCall(o.Expr) {
			cp.fallback = true
			return cp, outCols, true
		}
	}

	orderExprs, orderIdx, err := resolveOrderTargets(orderBy, items)
	if err != nil {
		cp.fallback = true
		return cp, outCols, true
	}

	cp.from = from
	cp.items = items
	cp.outCols = outCols
	cp.distinct = core.Distinct
	cp.limit = foldLimit(limit)
	cp.offset = foldLimit(offset)

	cp.aggregated = len(core.GroupBy) > 0 || core.Having != nil
	if !cp.aggregated {
		for _, item := range items {
			if containsAggregate(item.Expr) {
				cp.aggregated = true
				break
			}
		}
	}
	if !cp.aggregated {
		for _, o := range orderBy {
			if containsAggregate(o.Expr) {
				cp.aggregated = true
				break
			}
		}
	}

	if core.Where != nil {
		cp.where, _ = compileExpr(core.Where, from.cols)
	}

	for _, ge := range core.GroupBy {
		p, _ := compileExpr(ge, from.cols)
		cp.groupBy = append(cp.groupBy, p)
	}
	if core.Having != nil {
		cp.having, _ = compileExpr(core.Having, from.cols)
	}
	cp.projs = make([]program, len(items))
	for i, item := range items {
		cp.projs[i], _ = compileExpr(item.Expr, from.cols)
	}
	cp.orderBy = orderBy
	cp.orderIdx = orderIdx
	cp.orderProgs = make([]program, len(orderBy))
	for i := range orderBy {
		if orderIdx[i] < 0 {
			cp.orderProgs[i], _ = compileExpr(orderExprs[i], from.cols)
		}
	}
	return cp, outCols, true
}

func hasWindowCall(e sqlparse.Expr) bool {
	found := false
	sqlparse.WalkExprs(e, func(x sqlparse.Expr) {
		if fc, ok := x.(*sqlparse.FuncCall); ok && fc.Over != nil {
			found = true
		}
	})
	return found
}

// compileFrom lowers a FROM clause into a scan/join tree with statically
// bound column layouts. ok=false means the layout could not be determined
// (unknown table, derived table with unknown output) and the core must fall
// back.
func compileFrom(db *sqldb.Database, from sqlparse.TableExpr, ss *staticScope) (*fromPlan, bool) {
	if from == nil {
		return &fromPlan{leaf: &leafPlan{noFrom: true}}, true
	}
	switch x := from.(type) {
	case *sqlparse.TableName:
		qual := x.Alias
		if qual == "" {
			qual = x.Name
		}
		if cteCols, ok := ss.lookup(x.Name); ok {
			cols := make([]bindCol, len(cteCols))
			for i, c := range cteCols {
				cols[i] = bindCol{qual: strings.ToUpper(qual), name: c}
			}
			return &fromPlan{cols: cols, leaf: &leafPlan{cte: x.Name}}, true
		}
		tbl := db.Table(x.Name)
		if tbl == nil {
			return nil, false
		}
		cols := make([]bindCol, len(tbl.Columns))
		for i, c := range tbl.Columns {
			cols[i] = bindCol{qual: strings.ToUpper(qual), name: c.Name}
		}
		return &fromPlan{cols: cols, leaf: &leafPlan{table: x.Name}}, true

	case *sqlparse.SubqueryTable:
		sub, subCols, ok := compileStmtScoped(db, x.Select, ss)
		if !ok {
			return nil, false
		}
		qual := strings.ToUpper(x.Alias)
		cols := make([]bindCol, len(subCols))
		for i, c := range subCols {
			cols[i] = bindCol{qual: qual, name: c}
		}
		return &fromPlan{cols: cols, leaf: &leafPlan{sub: sub}}, true

	case *sqlparse.JoinExpr:
		left, ok := compileFrom(db, x.Left, ss)
		if !ok {
			return nil, false
		}
		right, ok := compileFrom(db, x.Right, ss)
		if !ok {
			return nil, false
		}
		cols := append(append([]bindCol{}, left.cols...), right.cols...)
		return &fromPlan{cols: cols, join: &joinPlan{src: x, left: left, right: right}}, true
	}
	return nil, false
}

// ---- runtime ----

// runStmt executes a compiled statement plan. The scope carries CTE rows
// and is shared with interpreter fallbacks, so the two paths interleave
// freely within one statement.
func (e *Executor) runStmt(sp *stmtPlan, sc *scope) (*Result, error) {
	if sp.fallback {
		return e.evalStmt(sp.stmt, sc, nil)
	}
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

	if len(sp.compound) == 0 {
		return e.runCore(sp.core, sc)
	}
	res, err := e.runCore(sp.core, sc)
	if err != nil {
		return nil, err
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
	if err := orderResultByOutput(res, sp.stmt.OrderBy); err != nil {
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

// runCore executes one compiled select core, mirroring evalCoreFull's
// clause order (and therefore its error order) exactly: FROM, WHERE,
// grouping + HAVING over all groups, projection over all survivors,
// DISTINCT, ORDER BY, LIMIT/OFFSET.
func (e *Executor) runCore(cp *corePlan, sc *scope) (*Result, error) {
	if cp.fallback {
		return e.evalCoreFull(cp.src, sc, nil, cp.srcOrderBy, cp.srcLimit, cp.srcOffset)
	}
	// Everything the core takes from the Query's scratch — survivors, the
	// group partition, join intermediates under runFrom — is dead once the
	// projected rows exist; those are slab memory and the only thing the
	// Result keeps.
	scr := sc.scr
	mark := scr.mark()
	defer scr.release(mark)

	rel, err := e.runFrom(cp.from, sc)
	if err != nil {
		return nil, err
	}

	env := &rowEnv{exec: e, sc: sc, cols: rel.cols}

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

	// Output rows are carved out of slab chunks: they escape into the
	// Result, so they are never pooled, but chunking cuts the two
	// allocations per projected row down to one per query — the number of
	// projection calls is known before the first (begin), so the slab's
	// first chunk and outs are made at their final size. projected counts
	// projection calls so the survivors can be compacted off the slab when
	// DISTINCT or LIMIT/OFFSET discard most of them (see below).
	var slab rowSlab
	var outs []projRow
	projected := 0
	begin := func(n int) {
		slab.expect(n * (len(cp.projs) + len(cp.orderBy)))
		outs = make([]projRow, 0, n)
	}
	project := func() error {
		projected++
		row := slab.take(len(cp.projs))
		for i, p := range cp.projs {
			v, err := p(env)
			if err != nil {
				return err
			}
			row[i] = v
		}
		keys := slab.take(len(cp.orderBy))
		for i := range cp.orderBy {
			if cp.orderIdx[i] >= 0 {
				keys[i] = row[cp.orderIdx[i]]
				continue
			}
			v, err := cp.orderProgs[i](env)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		outs = append(outs, projRow{row: row, keys: keys})
		return nil
	}

	if cp.aggregated {
		groups, err := e.runGroupBy(cp, rel, env)
		if err != nil {
			return nil, err
		}
		emptyRow := sqldb.Row(nil)
		setGroup := func(g []sqldb.Row) {
			env.group = g
			if len(g) > 0 {
				env.row = g[0]
			} else {
				if emptyRow == nil {
					emptyRow = make(sqldb.Row, len(rel.cols))
				}
				env.row = emptyRow
			}
		}
		// HAVING over every group first, projection second — the
		// interpreter builds all group environments (evaluating HAVING)
		// before its projection loop, and error order must match.
		kept := groups
		if cp.having != nil {
			kept = scr.groups.take(len(groups))[:0]
			for _, g := range groups {
				setGroup(g)
				v, err := cp.having(env)
				if err != nil {
					return nil, err
				}
				if truthy(v) {
					kept = append(kept, g)
				}
			}
		}
		begin(len(kept))
		for _, g := range kept {
			setGroup(g)
			if err := project(); err != nil {
				return nil, err
			}
		}
	} else {
		begin(len(rel.rows))
		for _, row := range rel.rows {
			env.row = row
			if err := project(); err != nil {
				return nil, err
			}
		}
	}

	return finishCore(cp, outs, projected)
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

// runGroupBy partitions the relation by the compiled GROUP BY programs
// using length-prefixed composite keys, preserving first-occurrence order.
// The partition lives in the Query's scratch: one pass gives every row its
// group's id (ids in first-occurrence order, through the scratch's key map)
// and every group its row count, a second cuts one backing array into
// exact-capacity groups and deals the rows into them in input order.
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
	gids := scr.ints.take(len(rel.rows))
	counts := scr.ints.take(len(rel.rows))[:0]
	ids := scr.takeIDs()
	kbp := getKeyBuf()
	kb := *kbp
	for i, row := range rel.rows {
		env.row = row
		kb = kb[:0]
		for _, p := range cp.groupBy {
			v, err := p(env)
			if err != nil {
				*kbp = kb
				putKeyBuf(kbp)
				return nil, err
			}
			kb = sqldb.AppendValueKey(kb, v)
		}
		gid, ok := ids[string(kb)]
		if !ok {
			gid = len(counts)
			ids[string(kb)] = gid
			counts = append(counts, 0)
		}
		gids[i] = gid
		counts[gid]++
	}
	*kbp = kb
	putKeyBuf(kbp)
	scr.putIDs(ids)

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
	return e.joinRelations(fp.join.src, left, right, fp.cols, sc, nil)
}

func (e *Executor) runLeaf(fp *fromPlan, sc *scope) (relation, error) {
	lp := fp.leaf
	var rows []sqldb.Row
	switch {
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
