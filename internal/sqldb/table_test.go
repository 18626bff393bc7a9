package sqldb

import (
	"testing"
)

func sampleTable() *Table {
	t := NewTable("ORDERS",
		Column{Name: "ID", Type: "INTEGER"},
		Column{Name: "REGION", Type: "TEXT"},
		Column{Name: "AMOUNT", Type: "FLOAT"},
	)
	rows := []struct {
		id     int64
		region string
		amount float64
	}{
		{1, "east", 10}, {2, "west", 20}, {3, "east", 30},
		{4, "east", 40}, {5, "north", 50}, {6, "west", 60},
	}
	for _, r := range rows {
		t.MustAppend(Int(r.id), Str(r.region), Float(r.amount))
	}
	return t
}

func TestColumnIndexCaseInsensitive(t *testing.T) {
	tbl := sampleTable()
	if got := tbl.ColumnIndex("region"); got != 1 {
		t.Errorf("ColumnIndex(region) = %d, want 1", got)
	}
	if got := tbl.ColumnIndex("MISSING"); got != -1 {
		t.Errorf("ColumnIndex(MISSING) = %d, want -1", got)
	}
}

func TestAppendArity(t *testing.T) {
	tbl := sampleTable()
	if err := tbl.Append(Int(9)); err == nil {
		t.Error("Append with wrong arity should fail")
	}
}

func TestTopValues(t *testing.T) {
	tbl := sampleTable()
	top := tbl.TopValues("REGION", 2)
	if len(top) != 2 {
		t.Fatalf("TopValues returned %d values, want 2", len(top))
	}
	if top[0].S != "east" {
		t.Errorf("most frequent = %v, want east (3 occurrences)", top[0])
	}
	if top[1].S != "west" {
		t.Errorf("second = %v, want west (2 occurrences)", top[1])
	}
}

func TestTopValuesSkipsNulls(t *testing.T) {
	tbl := NewTable("T", Column{Name: "X", Type: "TEXT"})
	tbl.MustAppend(Null())
	tbl.MustAppend(Null())
	tbl.MustAppend(Str("a"))
	top := tbl.TopValues("X", 5)
	if len(top) != 1 || top[0].S != "a" {
		t.Errorf("TopValues = %v, want just [a]", top)
	}
}

func TestTopValuesTieBreakDeterministic(t *testing.T) {
	tbl := NewTable("T", Column{Name: "X", Type: "TEXT"})
	for _, s := range []string{"b", "a", "c"} {
		tbl.MustAppend(Str(s))
	}
	top := tbl.TopValues("X", 3)
	if top[0].S != "a" || top[1].S != "b" || top[2].S != "c" {
		t.Errorf("tie break not by value order: %v", top)
	}
}

func TestDatabaseRegistry(t *testing.T) {
	db := NewDatabase("testdb")
	db.AddTable(sampleTable())
	db.AddTable(NewTable("USERS", Column{Name: "ID", Type: "INTEGER"}))

	if db.Table("orders") == nil {
		t.Error("case-insensitive lookup failed")
	}
	if db.Table("nope") != nil {
		t.Error("missing table should be nil")
	}
	tables := db.Tables()
	if len(tables) != 2 || tables[0].Name != "ORDERS" || tables[1].Name != "USERS" {
		t.Errorf("Tables = %v, want registration order", tables)
	}

	// Replacement keeps order, swaps contents.
	replacement := NewTable("ORDERS", Column{Name: "ONLY", Type: "TEXT"})
	db.AddTable(replacement)
	if len(db.Tables()) != 2 {
		t.Errorf("replacement changed table count: %d", len(db.Tables()))
	}
	if db.Table("ORDERS") != replacement {
		t.Error("replacement did not take effect")
	}
}
