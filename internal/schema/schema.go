// Package schema provides the prompt-facing database schema representation
// of §2.1: tables and columns augmented with the top-5 most frequent values
// per attribute, plus the element/subset machinery schema linking needs.
package schema

import (
	"fmt"
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

// Subset returns a schema containing only the given elements (whole tables
// are retained in original column order; tables with no selected columns are
// dropped). Unknown elements are ignored.
func (s *Schema) Subset(elements []Element) *Schema {
	want := make(map[string]bool, len(elements))
	for _, e := range elements {
		want[strings.ToUpper(e.Table)+"."+strings.ToUpper(e.Column)] = true
	}
	out := &Schema{DatabaseID: s.DatabaseID}
	for _, t := range s.Tables {
		var cols []Column
		for _, c := range t.Columns {
			if want[strings.ToUpper(t.Name)+"."+strings.ToUpper(c.Name)] {
				cols = append(cols, c)
			}
		}
		if len(cols) > 0 {
			out.Tables = append(out.Tables, Table{Name: t.Name, Columns: cols})
		}
	}
	return out
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
func (s *Schema) DDL() string {
	var sb strings.Builder
	for i, t := range s.Tables {
		if i > 0 {
			sb.WriteString("\n")
		}
		fmt.Fprintf(&sb, "CREATE TABLE %s (\n", t.Name)
		for j, c := range t.Columns {
			fmt.Fprintf(&sb, "  %s %s", c.Name, c.Type)
			if j < len(t.Columns)-1 {
				sb.WriteString(",")
			}
			var notes []string
			if c.Description != "" {
				notes = append(notes, c.Description)
			}
			if len(c.TopValues) > 0 {
				notes = append(notes, "top values: "+strings.Join(c.TopValues, ", "))
			}
			if len(notes) > 0 {
				sb.WriteString(" -- " + strings.Join(notes, "; "))
			}
			sb.WriteString("\n")
		}
		sb.WriteString(");\n")
	}
	return sb.String()
}
