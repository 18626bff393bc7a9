package sqlexec

import (
	"sort"

	"genedit/internal/sqldb"
	"genedit/internal/sqlparse"
)

// Window calls. Supported functions: ROW_NUMBER, RANK, DENSE_RANK, the
// aggregates SUM/COUNT/AVG/MIN/MAX over the whole partition (no frames),
// and LAG/LEAD with optional offset and default. runCore computes a core's
// window calls after HAVING, one after another in collectWindowCalls'
// order, over the rows or groups it is about to project; the projection,
// ORDER BY and the arguments of later window calls read the values.

// windowPlan is one window call compiled against its core's rows.
type windowPlan struct {
	fc        *sqlparse.FuncCall
	partition []program
	order     []program
	args      []program
}

func compileWindow(fc *sqlparse.FuncCall, b *binder) *windowPlan {
	wp := &windowPlan{fc: fc}
	for _, pe := range fc.Over.PartitionBy {
		p, _ := compileExpr(pe, b)
		wp.partition = append(wp.partition, p)
	}
	for _, item := range fc.Over.OrderBy {
		p, _ := compileExpr(item.Expr, b)
		wp.order = append(wp.order, p)
	}
	for _, a := range fc.Args {
		p, _ := compileExpr(a, b)
		wp.args = append(wp.args, p)
	}
	return wp
}

// values computes the call's value for each output of out, in the
// interpreter's evaluation order: every output's partition key, then
// partition by partition in first-occurrence order the ORDER BY keys of its
// members, a stable sort, and the function over the sorted members. The
// values are scratch, read by the core's projection.
func (wp *windowPlan) values(out *outputs, env *rowEnv) ([]sqldb.Value, error) {
	scr := env.sc.scr
	n := out.len()
	vals := scr.vals.take(n)

	// Partitions in first-occurrence order, their members dealt into one
	// backing array in output order.
	part, counts, err := partition(out, wp.partition, env)
	if err != nil {
		return nil, err
	}
	members := scr.ints.take(n)
	starts := scr.ints.take(len(counts) + 1)
	for p, c := range counts {
		starts[p+1] = starts[p] + c
	}
	fill := scr.ints.take(len(counts))
	copy(fill, starts)
	for i, p := range part {
		members[fill[p]] = i
		fill[p]++
	}

	k := len(wp.order)
	for p := range counts {
		rows := members[starts[p]:starts[p+1]]
		var keys []sqldb.Value
		if k > 0 {
			keys = scr.vals.take(len(rows) * k)
			for pi, ri := range rows {
				out.at(env, ri)
				for ki, prog := range wp.order {
					v, err := prog(env)
					if err != nil {
						return nil, err
					}
					keys[pi*k+ki] = v
				}
			}
			sort.Stable(&partitionSort{rows: rows, keys: keys, orderBy: wp.fc.Over.OrderBy})
		}
		if err := wp.apply(rows, keys, vals, out, env); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// apply computes the function over one partition's members, sorted, with
// their ORDER BY keys (nil without ORDER BY), into vals.
func (wp *windowPlan) apply(rows []int, keys, vals []sqldb.Value, out *outputs, env *rowEnv) error {
	fc := wp.fc
	k := len(wp.order)
	tied := func(pos int) bool { // sorted positions pos-1 and pos have equal keys
		return keys == nil || compareOrderKeys(keys[(pos-1)*k:pos*k], keys[pos*k:(pos+1)*k], fc.Over.OrderBy) == 0
	}
	switch fc.Name {
	case "ROW_NUMBER":
		for pos, ri := range rows {
			vals[ri] = sqldb.Int(int64(pos + 1))
		}
	case "RANK", "DENSE_RANK":
		rank := 1
		for pos, ri := range rows {
			if pos > 0 && !tied(pos) {
				if fc.Name == "RANK" {
					rank = pos + 1
				} else {
					rank++
				}
			}
			vals[ri] = sqldb.Int(int64(rank))
		}
	case "LAG", "LEAD":
		if len(wp.args) < 1 || len(wp.args) > 3 {
			return execErrf("%s expects 1 to 3 arguments", fc.Name)
		}
		offset := int64(1)
		if len(wp.args) >= 2 {
			out.at(env, rows[0])
			v, err := wp.args[1](env)
			if err != nil {
				return err
			}
			if o, ok := v.AsInt(); ok {
				offset = o
			}
		}
		for pos, ri := range rows {
			src := pos + int(offset)
			if fc.Name == "LAG" {
				src = pos - int(offset)
			}
			arg := 0
			if src < 0 || src >= len(rows) {
				vals[ri] = sqldb.Null()
				if len(wp.args) < 3 {
					continue
				}
				arg, src = 2, pos
			}
			out.at(env, rows[src])
			v, err := wp.args[arg](env)
			if err != nil {
				return err
			}
			vals[ri] = v
		}
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		if fc.Star {
			if fc.Name != "COUNT" {
				return execErrf("%s(*) is not a valid window aggregate", fc.Name)
			}
			for _, ri := range rows {
				vals[ri] = sqldb.Int(int64(len(rows)))
			}
			return nil
		}
		if len(wp.args) != 1 {
			return execErrf("window aggregate %s expects 1 argument", fc.Name)
		}
		// Over the whole partition, in sorted order; DISTINCT is not
		// applied to window aggregates.
		args := env.sc.scr.vals.take(len(rows))[:0]
		for _, ri := range rows {
			out.at(env, ri)
			v, err := wp.args[0](env)
			if err != nil {
				return err
			}
			if !v.IsNull() {
				args = append(args, v)
			}
		}
		agg, err := finishAggregate(fc.Name, args)
		if err != nil {
			return err
		}
		for _, ri := range rows {
			vals[ri] = agg
		}
	default:
		return execErrf("unsupported window function %s", fc.Name)
	}
	return nil
}

// partitionSort orders a partition's members by their ORDER BY keys (k per
// member, moved with it); sort.Stable makes the same comparisons and swaps
// sort.SliceStable makes, so ties and incomparable keys settle as in the
// interpreter.
type partitionSort struct {
	rows    []int
	keys    []sqldb.Value
	orderBy []sqlparse.OrderItem
}

func (s *partitionSort) Len() int { return len(s.rows) }

func (s *partitionSort) Less(a, b int) bool {
	k := len(s.orderBy)
	return compareOrderKeys(s.keys[a*k:(a+1)*k], s.keys[b*k:(b+1)*k], s.orderBy) < 0
}

func (s *partitionSort) Swap(a, b int) {
	s.rows[a], s.rows[b] = s.rows[b], s.rows[a]
	k := len(s.orderBy)
	for i := 0; i < k; i++ {
		s.keys[a*k+i], s.keys[b*k+i] = s.keys[b*k+i], s.keys[a*k+i]
	}
}
