package schema_test

import (
	"fmt"
	"strings"
	"testing"

	"genedit/internal/schema"
	"genedit/internal/sqldb"
	"genedit/internal/workload"
)

func fixtureDB() *sqldb.Database {
	db := sqldb.NewDatabase("shop")
	orders := sqldb.NewTable("ORDERS",
		sqldb.Column{Name: "ID", Type: "INTEGER"},
		sqldb.Column{Name: "REGION", Type: "TEXT", Description: "sales region"},
	)
	for _, r := range []string{"east", "east", "west"} {
		orders.MustAppend(sqldb.Int(1), sqldb.Str(r))
	}
	db.AddTable(orders)
	users := sqldb.NewTable("USERS", sqldb.Column{Name: "NAME", Type: "TEXT"})
	users.MustAppend(sqldb.Str("ann"))
	db.AddTable(users)
	return db
}

func TestFromDatabaseProfilesTopValues(t *testing.T) {
	s := schema.FromDatabase(fixtureDB(), 5)
	if len(s.Tables) != 2 || s.Tables[0].Name != "ORDERS" {
		t.Fatalf("tables = %+v, want ORDERS then USERS", s.Tables)
	}
	tbl := &s.Tables[0]
	region := tbl.Columns[1]
	if region.Name != "REGION" || len(region.TopValues) != 2 || region.TopValues[0] != "east" {
		t.Errorf("REGION profile = %+v, want east first", region)
	}
}

func TestElementsAndHasElement(t *testing.T) {
	s := schema.FromDatabase(fixtureDB(), 0)
	if n := s.ColumnCount(); n != 3 {
		t.Fatalf("ColumnCount = %d, want 3", n)
	}
	if !s.HasElement(schema.Element{Table: "orders", Column: "region"}) {
		t.Error("HasElement should be case-insensitive")
	}
	if s.HasElement(schema.Element{Table: "ORDERS", Column: "MISSING"}) {
		t.Error("HasElement found a missing column")
	}
}

// The linked DDL's oracle is what it replaced: cut the schema down to the
// linked elements (subset, once Schema.Subset), then render that the way
// Schema.DDL did, through fmt and strings.Join.

func subset(s *schema.Schema, elements []schema.Element) *schema.Schema {
	want := make(map[string]bool, len(elements))
	for _, e := range elements {
		want[strings.ToUpper(e.Table)+"."+strings.ToUpper(e.Column)] = true
	}
	out := &schema.Schema{DatabaseID: s.DatabaseID}
	for _, t := range s.Tables {
		var cols []schema.Column
		for _, c := range t.Columns {
			if want[strings.ToUpper(t.Name)+"."+strings.ToUpper(c.Name)] {
				cols = append(cols, c)
			}
		}
		if len(cols) > 0 {
			out.Tables = append(out.Tables, schema.Table{Name: t.Name, Columns: cols})
		}
	}
	return out
}

func oracleDDL(s *schema.Schema) string {
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

// oracleLinkedDDL is the subset-or-full branch the prompt builders had.
func oracleLinkedDDL(s *schema.Schema, elements []schema.Element) string {
	if sub := subset(s, elements); sub.ColumnCount() > 0 {
		return oracleDDL(sub)
	}
	return oracleDDL(s)
}

func TestSubset(t *testing.T) {
	s := schema.FromDatabase(fixtureDB(), 0)
	els := []schema.Element{{Table: "ORDERS", Column: "REGION"}, {Table: "NOPE", Column: "X"}}
	sub := subset(s, els)
	if len(sub.Tables) != 1 || len(sub.Tables[0].Columns) != 1 || sub.Tables[0].Columns[0].Name != "REGION" {
		t.Fatalf("subset = %+v, want just ORDERS.REGION", sub)
	}
	want := "CREATE TABLE ORDERS (\n  REGION TEXT -- sales region\n);\n"
	if got := s.LinkedDDL(els); got != want {
		t.Errorf("LinkedDDL = %q, want %q", got, want)
	}
	if got := s.LinkedDDL([]schema.Element{{Table: "NOPE", Column: "X"}}); got != s.DDL() {
		t.Errorf("LinkedDDL of unknown elements = %q, want the full DDL", got)
	}
	if s.ColumnCount() != 3 {
		t.Error("linking must not mutate the source schema")
	}
}

// linkCases lists the element sets a schema is checked under: every subset
// of its first columns (all of them when there are few), each again in
// mixed case, plus unknown elements alone and beside real ones.
func linkCases(s *schema.Schema, maxCols int) [][]schema.Element {
	var all []schema.Element
	for _, t := range s.Tables {
		for _, c := range t.Columns {
			all = append(all, schema.Element{Table: t.Name, Column: c.Name})
		}
	}
	cols := all[:min(len(all), maxCols)]
	unknown := []schema.Element{{Table: "NOPE", Column: "X"}, {Table: s.Tables[0].Name, Column: "NO_SUCH_COLUMN"}, {}}
	cases := [][]schema.Element{nil, unknown, all, append(append([]schema.Element(nil), unknown...), all...)}
	for mask := 1; mask < 1<<len(cols); mask++ {
		var els, mixed []schema.Element
		for i, e := range cols {
			if mask&(1<<i) != 0 {
				els = append(els, e)
				mixed = append(mixed, schema.Element{Table: strings.ToLower(e.Table), Column: mixCase(e.Column)})
			}
		}
		cases = append(cases, els, mixed, append(mixed, unknown[mask%len(unknown)]))
	}
	// The tail columns, which the masks above do not reach, one at a time.
	for _, e := range all[len(cols):] {
		cases = append(cases, []schema.Element{e}, []schema.Element{{Table: mixCase(e.Table), Column: strings.ToLower(e.Column)}})
	}
	return cases
}

func mixCase(s string) string {
	b := []byte(s)
	for i := 0; i < len(b); i += 2 {
		if 'A' <= b[i] && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// TestLinkedDDLMatchesSubsetOracle: over every workload schema, LinkedDDL
// and DDL are byte-identical to the Subset-then-render oracle for every
// subset of the first twelve columns (4,095 per schema), mixed case,
// unknown elements and each remaining column alone.
func TestLinkedDDLMatchesSubsetOracle(t *testing.T) {
	suite := workload.NewSuite(1)
	checked := 0
	for db, s := range suite.Schemas {
		if got, want := s.DDL(), oracleDDL(s); got != want {
			t.Fatalf("%s: DDL differs from the oracle:\n%s\nwant:\n%s", db, got, want)
		}
		for _, els := range linkCases(s, 12) {
			if got, want := s.LinkedDDL(els), oracleLinkedDDL(s, els); got != want {
				t.Fatalf("%s: LinkedDDL(%v) =\n%s\nwant:\n%s", db, els, got, want)
			}
			checked++
		}
	}
	t.Logf("%d element sets over %d schemas", checked, len(suite.Schemas))
}

// TestLinkedDDLAllocatesItsResult: the renderer sizes its builder exactly,
// so a linked schema costs one allocation, the string it returns.
func TestLinkedDDLAllocatesItsResult(t *testing.T) {
	suite := workload.NewSuite(1)
	for db, s := range suite.Schemas {
		els := []schema.Element{
			{Table: s.Tables[0].Name, Column: s.Tables[0].Columns[0].Name},
			{Table: s.Tables[len(s.Tables)-1].Name, Column: s.Tables[len(s.Tables)-1].Columns[0].Name},
		}
		if n := testing.AllocsPerRun(50, func() { _ = s.LinkedDDL(els) }); n != 1 {
			t.Errorf("%s: LinkedDDL made %v allocations, want 1", db, n)
		}
		if n := testing.AllocsPerRun(50, func() { _ = s.DDL() }); n != 1 {
			t.Errorf("%s: DDL made %v allocations, want 1", db, n)
		}
	}
}

func TestDDLRendering(t *testing.T) {
	s := schema.FromDatabase(fixtureDB(), 5)
	ddl := s.DDL()
	for _, want := range []string{
		"CREATE TABLE ORDERS", "REGION TEXT", "top values: east, west",
		"sales region", "CREATE TABLE USERS",
	} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL missing %q:\n%s", want, ddl)
		}
	}
}
