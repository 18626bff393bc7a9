// Package decompose implements §3.2 of the paper: SQL queries are
// decomposed into sub-statements (one fragment per clause of each CTE and of
// the final select) and re-composed from fragments. The fragments carry
// pseudo-SQL ("… FROM SPORTS_FINANCIALS …") and generated natural-language
// descriptions; they are the representation stored in the knowledge set and
// referenced by CoT plan steps.
//
// The paper's first step, rewriting each query to use CTEs, is not applied:
// query-log SQL is decomposed as written, so a FROM-clause subquery stays
// inside its FROM fragment rather than becoming a CTE unit of its own.
package decompose

import (
	"fmt"
	"strings"

	"genedit/internal/sqlparse"
)

// Clause identifies which part of a select unit a fragment captures.
type Clause string

// Clause kinds.
const (
	ClauseProjection Clause = "projection"
	ClauseFrom       Clause = "from"
	ClauseWhere      Clause = "where"
	ClauseGroupBy    Clause = "group_by"
	ClauseHaving     Clause = "having"
	ClauseOrderBy    Clause = "order_by"
	ClauseLimit      Clause = "limit"
	ClauseOffset     Clause = "offset"
	// ClauseWhole captures a unit too complex for clause-level decomposition
	// (compound selects or nested WITH); its SQL is the unit's full text.
	ClauseWhole Clause = "whole"
)

// Fragment is one decomposed sub-statement.
type Fragment struct {
	// Unit is the CTE name this fragment belongs to; empty for the final
	// SELECT.
	Unit string
	// Clause identifies the clause captured.
	Clause Clause
	// SQL is the canonical clause content without its introducing keyword
	// (or the full unit SQL for ClauseWhole).
	SQL string
	// Distinct records SELECT DISTINCT on projection fragments.
	Distinct bool
	// NL is a generated natural-language description of the fragment.
	NL string
}

// Pseudo renders the paper's pseudo-SQL display form: the sub-statement with
// its keyword, wrapped in "…" affixes marking it as part of a larger query.
func (f Fragment) Pseudo() string {
	body := f.SQL
	switch f.Clause {
	case ClauseProjection:
		if f.Distinct {
			body = "SELECT DISTINCT " + body
		} else {
			body = "SELECT " + body
		}
	case ClauseFrom:
		body = "FROM " + body
	case ClauseWhere:
		body = "WHERE " + body
	case ClauseGroupBy:
		body = "GROUP BY " + body
	case ClauseHaving:
		body = "HAVING " + body
	case ClauseOrderBy:
		body = "ORDER BY " + body
	case ClauseLimit:
		body = "LIMIT " + body
	case ClauseOffset:
		body = "OFFSET " + body
	}
	return "... " + body + " ..."
}

// Key returns a stable identity for the fragment within a query.
func (f Fragment) Key() string {
	return f.Unit + "/" + string(f.Clause)
}

// Decompose splits a statement into fragments: per-clause sub-statements for
// every CTE and for the final select. The statement is only read: every
// fragment is printed from it, none keeps a reference into it.
func Decompose(stmt *sqlparse.SelectStmt) ([]Fragment, error) {
	var frags []Fragment
	for _, cte := range stmt.With {
		frags = append(frags, decomposeUnit(cte.Name, cte.Select)...)
	}
	final := &sqlparse.SelectStmt{
		Core:     stmt.Core,
		Compound: stmt.Compound,
		OrderBy:  stmt.OrderBy,
		Limit:    stmt.Limit,
		Offset:   stmt.Offset,
	}
	frags = append(frags, decomposeUnit("", final)...)
	return frags, nil
}

// DecomposeSQL parses and decomposes SQL text.
func DecomposeSQL(sql string) ([]Fragment, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return Decompose(stmt)
}

func decomposeUnit(unit string, sel *sqlparse.SelectStmt) []Fragment {
	if len(sel.With) > 0 || len(sel.Compound) > 0 {
		return []Fragment{{
			Unit:   unit,
			Clause: ClauseWhole,
			SQL:    sqlparse.Print(sel),
			NL:     wholeNL(unit),
		}}
	}
	core := sel.Core
	var frags []Fragment
	frags = append(frags, Fragment{
		Unit:     unit,
		Clause:   ClauseProjection,
		SQL:      sqlparse.PrintSelectItems(core.Items),
		Distinct: core.Distinct,
		NL:       projectionNL(unit, core.Items),
	})
	if core.From != nil {
		frags = append(frags, Fragment{
			Unit:   unit,
			Clause: ClauseFrom,
			SQL:    sqlparse.PrintTableExpr(core.From),
			NL:     fromNL(core.From),
		})
	}
	if core.Where != nil {
		frags = append(frags, Fragment{
			Unit:   unit,
			Clause: ClauseWhere,
			SQL:    sqlparse.PrintExpr(core.Where),
			NL:     "Keep only the rows where " + shortText(sqlparse.PrintExpr(core.Where)) + ".",
		})
	}
	if len(core.GroupBy) > 0 {
		frags = append(frags, Fragment{
			Unit:   unit,
			Clause: ClauseGroupBy,
			SQL:    sqlparse.PrintExprList(core.GroupBy),
			NL:     "Group the rows by " + shortText(sqlparse.PrintExprList(core.GroupBy)) + ".",
		})
	}
	if core.Having != nil {
		frags = append(frags, Fragment{
			Unit:   unit,
			Clause: ClauseHaving,
			SQL:    sqlparse.PrintExpr(core.Having),
			NL:     "Keep only the groups having " + shortText(sqlparse.PrintExpr(core.Having)) + ".",
		})
	}
	if len(sel.OrderBy) > 0 {
		frags = append(frags, Fragment{
			Unit:   unit,
			Clause: ClauseOrderBy,
			SQL:    sqlparse.PrintOrderItems(sel.OrderBy),
			NL:     "Order the results by " + shortText(sqlparse.PrintOrderItems(sel.OrderBy)) + ".",
		})
	}
	if sel.Limit != nil {
		frags = append(frags, Fragment{
			Unit:   unit,
			Clause: ClauseLimit,
			SQL:    sqlparse.PrintExpr(sel.Limit),
			NL:     "Return only the first " + sqlparse.PrintExpr(sel.Limit) + " rows.",
		})
	}
	if sel.Offset != nil {
		frags = append(frags, Fragment{
			Unit:   unit,
			Clause: ClauseOffset,
			SQL:    sqlparse.PrintExpr(sel.Offset),
			NL:     "Skip the first " + sqlparse.PrintExpr(sel.Offset) + " rows.",
		})
	}
	return frags
}

// ComposeSQL reassembles fragments into SQL text.
func ComposeSQL(frags []Fragment) (string, error) {
	type unitParts struct {
		name  string
		parts map[Clause]Fragment
	}
	var order []string
	units := make(map[string]*unitParts)
	sawFinal := false
	for _, f := range frags {
		key := strings.ToUpper(f.Unit)
		if f.Unit == "" {
			sawFinal = true
		}
		u, ok := units[key]
		if !ok {
			u = &unitParts{name: f.Unit, parts: make(map[Clause]Fragment)}
			units[key] = u
			order = append(order, key)
		}
		if _, dup := u.parts[f.Clause]; dup {
			return "", fmt.Errorf("compose: duplicate %s fragment for unit %q", f.Clause, f.Unit)
		}
		u.parts[f.Clause] = f
	}
	if !sawFinal {
		return "", fmt.Errorf("compose: no final select fragments")
	}

	assemble := func(u *unitParts) (string, error) {
		if whole, ok := u.parts[ClauseWhole]; ok {
			if len(u.parts) > 1 {
				return "", fmt.Errorf("compose: unit %q mixes whole and clause fragments", u.name)
			}
			return whole.SQL, nil
		}
		proj, ok := u.parts[ClauseProjection]
		if !ok {
			return "", fmt.Errorf("compose: unit %q has no projection fragment", u.name)
		}
		var sb strings.Builder
		sb.WriteString("SELECT ")
		if proj.Distinct {
			sb.WriteString("DISTINCT ")
		}
		sb.WriteString(proj.SQL)
		if f, ok := u.parts[ClauseFrom]; ok {
			sb.WriteString(" FROM ")
			sb.WriteString(f.SQL)
		}
		if f, ok := u.parts[ClauseWhere]; ok {
			sb.WriteString(" WHERE ")
			sb.WriteString(f.SQL)
		}
		if f, ok := u.parts[ClauseGroupBy]; ok {
			sb.WriteString(" GROUP BY ")
			sb.WriteString(f.SQL)
		}
		if f, ok := u.parts[ClauseHaving]; ok {
			sb.WriteString(" HAVING ")
			sb.WriteString(f.SQL)
		}
		if f, ok := u.parts[ClauseOrderBy]; ok {
			sb.WriteString(" ORDER BY ")
			sb.WriteString(f.SQL)
		}
		if f, ok := u.parts[ClauseLimit]; ok {
			sb.WriteString(" LIMIT ")
			sb.WriteString(f.SQL)
		}
		if f, ok := u.parts[ClauseOffset]; ok {
			sb.WriteString(" OFFSET ")
			sb.WriteString(f.SQL)
		}
		return sb.String(), nil
	}

	var sb strings.Builder
	var cteTexts []string
	for _, key := range order {
		u := units[key]
		if u.name == "" {
			continue
		}
		body, err := assemble(u)
		if err != nil {
			return "", err
		}
		cteTexts = append(cteTexts, fmt.Sprintf("%s AS (%s)", u.name, body))
	}
	if len(cteTexts) > 0 {
		sb.WriteString("WITH ")
		sb.WriteString(strings.Join(cteTexts, ", "))
		sb.WriteString(" ")
	}
	finalBody, err := assemble(units[""])
	if err != nil {
		return "", err
	}
	sb.WriteString(finalBody)
	return sb.String(), nil
}

// --- natural-language description helpers ---

func wholeNL(unit string) string {
	if unit == "" {
		return "Combine the intermediate results into the final answer."
	}
	return fmt.Sprintf("Build the %s intermediate result.", unit)
}

func projectionNL(unit string, items []sqlparse.SelectItem) string {
	names := outputNames(items, 4)
	if unit == "" {
		return "Produce the final output columns: " + names + "."
	}
	return fmt.Sprintf("Begin by building %s, computing %s.", unit, names)
}

func fromNL(from sqlparse.TableExpr) string {
	tables := tableNames(from)
	switch len(tables) {
	case 0:
		return "Compute values without reading a table."
	case 1:
		return "Look at the data from the " + tables[0] + " table."
	default:
		return "Combine data from " + strings.Join(tables, ", ") + "."
	}
}

// tableNames lists base table / CTE names referenced in a FROM clause.
func tableNames(t sqlparse.TableExpr) []string {
	switch x := t.(type) {
	case *sqlparse.TableName:
		return []string{x.Name}
	case *sqlparse.SubqueryTable:
		return []string{"(subquery)"}
	case *sqlparse.JoinExpr:
		return append(tableNames(x.Left), tableNames(x.Right)...)
	}
	return nil
}

func outputNames(items []sqlparse.SelectItem, max int) string {
	var names []string
	for _, item := range items {
		switch {
		case item.Star:
			names = append(names, "*")
		case item.Alias != "":
			names = append(names, item.Alias)
		default:
			if cr, ok := item.Expr.(*sqlparse.ColumnRef); ok {
				names = append(names, cr.Name)
			} else {
				names = append(names, shortText(sqlparse.PrintExpr(item.Expr)))
			}
		}
		if len(names) == max && len(items) > max {
			names = append(names, fmt.Sprintf("and %d more", len(items)-max))
			break
		}
	}
	return strings.Join(names, ", ")
}

func shortText(s string) string {
	const max = 60
	if len(s) <= max {
		return s
	}
	return s[:max-1] + "…"
}
