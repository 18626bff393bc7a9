package sqldb

import (
	"fmt"
	"sort"
	"strings"
)

// Column describes one table column: its name and declared SQL type. Type is
// informational (used in schema prompts); values are dynamically typed.
type Column struct {
	Name string
	Type string
	// Description is optional documentation surfaced in schema prompts.
	Description string
}

// Row is one tuple of values.
type Row []Value

// Table is an in-memory relation.
type Table struct {
	Name    string
	Columns []Column
	Rows    []Row
}

// NewTable creates an empty table with the given columns.
func NewTable(name string, cols ...Column) *Table {
	return &Table{Name: name, Columns: cols}
}

// ColumnIndex returns the position of the named column (case-insensitive),
// or -1 when absent.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Append adds a row, validating arity.
func (t *Table) Append(vals ...Value) error {
	if len(vals) != len(t.Columns) {
		return fmt.Errorf("table %s: row has %d values, want %d", t.Name, len(vals), len(t.Columns))
	}
	t.Rows = append(t.Rows, Row(vals))
	return nil
}

// MustAppend adds a row and panics on arity mismatch; for use in static
// dataset builders where a mismatch is a programming error.
func (t *Table) MustAppend(vals ...Value) {
	if err := t.Append(vals...); err != nil {
		panic(err)
	}
}

// TopValues returns the k most frequent non-NULL values in the named column,
// most frequent first with ties broken by value order. This implements the
// paper's "top-5 most frequent values per attribute" schema augmentation.
func (t *Table) TopValues(column string, k int) []Value {
	idx := t.ColumnIndex(column)
	if idx < 0 || k <= 0 {
		return nil
	}
	counts := make(map[string]int)
	rep := make(map[string]Value)
	for _, row := range t.Rows {
		v := row[idx]
		if v.IsNull() {
			continue
		}
		key := v.Key()
		counts[key]++
		rep[key] = v
	}
	keys := make([]string, 0, len(counts))
	for key := range counts {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return CompareForSort(rep[keys[i]], rep[keys[j]]) < 0
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	out := make([]Value, len(keys))
	for i, key := range keys {
		out[i] = rep[key]
	}
	return out
}

// Database is a named collection of tables.
type Database struct {
	Name   string
	tables map[string]*Table
	order  []string
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: make(map[string]*Table)}
}

// AddTable registers a table, replacing any same-named table.
func (d *Database) AddTable(t *Table) {
	key := strings.ToUpper(t.Name)
	if _, exists := d.tables[key]; !exists {
		d.order = append(d.order, key)
	}
	d.tables[key] = t
}

// Table returns the named table (case-insensitive) or nil.
func (d *Database) Table(name string) *Table {
	return d.tables[strings.ToUpper(name)]
}

// Tables returns all tables in registration order.
func (d *Database) Tables() []*Table {
	out := make([]*Table, 0, len(d.order))
	for _, key := range d.order {
		out = append(out, d.tables[key])
	}
	return out
}
