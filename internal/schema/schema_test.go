package schema

import (
	"strings"
	"testing"

	"genedit/internal/sqldb"
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
	s := FromDatabase(fixtureDB(), 5)
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
	s := FromDatabase(fixtureDB(), 0)
	if n := s.ColumnCount(); n != 3 {
		t.Fatalf("ColumnCount = %d, want 3", n)
	}
	if !s.HasElement(Element{Table: "orders", Column: "region"}) {
		t.Error("HasElement should be case-insensitive")
	}
	if s.HasElement(Element{Table: "ORDERS", Column: "MISSING"}) {
		t.Error("HasElement found a missing column")
	}
}

func TestSubset(t *testing.T) {
	s := FromDatabase(fixtureDB(), 0)
	sub := s.Subset([]Element{
		{Table: "ORDERS", Column: "REGION"},
		{Table: "NOPE", Column: "X"},
	})
	if len(sub.Tables) != 1 || len(sub.Tables[0].Columns) != 1 {
		t.Fatalf("Subset = %+v, want just ORDERS.REGION", sub)
	}
	if sub.Tables[0].Columns[0].Name != "REGION" {
		t.Errorf("subset column = %q", sub.Tables[0].Columns[0].Name)
	}
	if s.ColumnCount() != 3 {
		t.Error("Subset must not mutate the source schema")
	}
}

func TestDDLRendering(t *testing.T) {
	s := FromDatabase(fixtureDB(), 5)
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
