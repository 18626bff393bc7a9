// Package schema provides the prompt-facing database schema representation
// of §2.1: tables and columns augmented with the top-5 most frequent values
// per attribute, and its rendering as annotated DDL. Schema linking picks
// elements; LinkedDDL renders just those columns straight from the full
// schema, with no intermediate subset, into one exactly sized string.
package schema

import (
	"strings"

	"genedit/internal/sqldb"
)

// DefaultTopValues is the number of frequent values attached per column,
// matching the paper's "top-5 most frequent values per attribute".
const DefaultTopValues = 5

// Element identifies one column for schema linking.
type Element struct {
	Table  string
	Column string
}

func (e Element) String() string { return e.Table + "." + e.Column }

// Column is a prompt-facing column description.
type Column struct {
	Name        string
	Type        string
	Description string
	TopValues   []string
}

// Table is a prompt-facing table description.
type Table struct {
	Name    string
	Columns []Column
}

// Schema is the promptable description of one database.
type Schema struct {
	DatabaseID string
	Tables     []Table
}

// FromDatabase profiles a database into a schema, attaching the topK most
// frequent values of every column.
func FromDatabase(db *sqldb.Database, topK int) *Schema {
	s := &Schema{DatabaseID: db.Name}
	for _, tbl := range db.Tables() {
		st := Table{Name: tbl.Name}
		for _, col := range tbl.Columns {
			sc := Column{Name: col.Name, Type: col.Type, Description: col.Description}
			for _, v := range tbl.TopValues(col.Name, topK) {
				sc.TopValues = append(sc.TopValues, v.String())
			}
			st.Columns = append(st.Columns, sc)
		}
		s.Tables = append(s.Tables, st)
	}
	return s
}

// HasElement reports whether the schema contains the element
// (case-insensitive).
func (s *Schema) HasElement(e Element) bool {
	for _, t := range s.Tables {
		if !strings.EqualFold(t.Name, e.Table) {
			continue
		}
		for _, c := range t.Columns {
			if strings.EqualFold(c.Name, e.Column) {
				return true
			}
		}
	}
	return false
}

// ColumnCount reports the total number of columns.
func (s *Schema) ColumnCount() int {
	n := 0
	for _, t := range s.Tables {
		n += len(t.Columns)
	}
	return n
}

// DDL renders the schema as annotated CREATE TABLE statements, the form
// embedded in generation prompts.
func (s *Schema) DDL() string { return s.render(nil, true) }

// LinkedDDL renders the DDL of only the given elements, as DDL would render
// a schema holding just them: tables keep their order and the selected
// columns theirs, tables with no selected column are dropped, and unknown
// elements are ignored. Names match case-insensitively. When no element
// matches, it renders the full DDL, so a prompt never goes without a
// schema.
func (s *Schema) LinkedDDL(elements []Element) string {
	if ddl := s.render(elements, false); ddl != "" {
		return ddl
	}
	return s.DDL()
}

// render writes the DDL of every column (all) or of the linked ones. It
// walks the schema twice, first only counting, so the one builder it writes
// into is grown to the exact length: a prompt's schema costs one
// allocation, the string it returns.
func (s *Schema) render(elements []Element, all bool) string {
	n := s.walk(nil, elements, all)
	if n == 0 {
		return ""
	}
	var sb strings.Builder
	sb.Grow(n)
	s.walk(&sb, elements, all)
	return sb.String()
}

// walk renders the picked columns into sb, or only counts when sb is nil,
// and returns the length rendered.
func (s *Schema) walk(sb *strings.Builder, elements []Element, all bool) int {
	n := 0
	put := func(str string) {
		n += len(str)
		if sb != nil {
			sb.WriteString(str)
		}
	}
	picked := func(t *Table, c *Column) bool {
		if all {
			return true
		}
		for _, e := range elements {
			if strings.EqualFold(e.Column, c.Name) && strings.EqualFold(e.Table, t.Name) {
				return true
			}
		}
		return false
	}
	for i := range s.Tables {
		t := &s.Tables[i]
		// The last picked column alone goes without a trailing comma.
		last := len(t.Columns) - 1
		for last >= 0 && !picked(t, &t.Columns[last]) {
			last--
		}
		if last < 0 {
			continue
		}
		if n > 0 {
			put("\n")
		}
		put("CREATE TABLE ")
		put(t.Name)
		put(" (\n")
		for j := 0; j <= last; j++ {
			c := &t.Columns[j]
			if j != last && !picked(t, c) {
				continue
			}
			put("  ")
			put(c.Name)
			put(" ")
			put(c.Type)
			if j != last {
				put(",")
			}
			if c.Description != "" || len(c.TopValues) > 0 {
				put(" -- ")
				put(c.Description)
				if c.Description != "" && len(c.TopValues) > 0 {
					put("; ")
				}
				for k, v := range c.TopValues {
					if k == 0 {
						put("top values: ")
					} else {
						put(", ")
					}
					put(v)
				}
			}
			put("\n")
		}
		put(");\n")
	}
	return n
}
