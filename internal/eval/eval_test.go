package eval

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"genedit/internal/sqldb"
	"genedit/internal/sqlexec"
	"genedit/internal/task"
)

func res(cols []string, rows ...[]sqldb.Value) *sqlexec.Result {
	out := &sqlexec.Result{Columns: cols}
	for _, r := range rows {
		out.Rows = append(out.Rows, sqldb.Row(r))
	}
	return out
}

func TestResultsEqualOrderInsensitive(t *testing.T) {
	a := res([]string{"x"}, []sqldb.Value{sqldb.Int(1)}, []sqldb.Value{sqldb.Int(2)})
	b := res([]string{"x"}, []sqldb.Value{sqldb.Int(2)}, []sqldb.Value{sqldb.Int(1)})
	if !ResultsEqual(a, b) {
		t.Error("row order must not matter")
	}
}

func TestResultsEqualMultiset(t *testing.T) {
	a := res([]string{"x"}, []sqldb.Value{sqldb.Int(1)}, []sqldb.Value{sqldb.Int(1)})
	b := res([]string{"x"}, []sqldb.Value{sqldb.Int(1)}, []sqldb.Value{sqldb.Int(2)})
	if ResultsEqual(a, b) {
		t.Error("duplicate counts must matter")
	}
}

func TestResultsEqualShapeMismatch(t *testing.T) {
	a := res([]string{"x"}, []sqldb.Value{sqldb.Int(1)})
	b := res([]string{"x", "y"}, []sqldb.Value{sqldb.Int(1), sqldb.Int(2)})
	if ResultsEqual(a, b) {
		t.Error("column count must matter")
	}
	c := res([]string{"x"})
	if ResultsEqual(a, c) {
		t.Error("row count must matter")
	}
}

func TestResultsEqualNumericKinds(t *testing.T) {
	a := res([]string{"x"}, []sqldb.Value{sqldb.Int(3)})
	b := res([]string{"x"}, []sqldb.Value{sqldb.Float(3)})
	if !ResultsEqual(a, b) {
		t.Error("3 and 3.0 compare equal under EX")
	}
}

// TestResultsEqualNoDelimiterAliasing: string values that hold a delimiter
// byte must not let two different rows share a key ("a\x1fsb","c" vs
// "a","b\x1fsc" joined on \x1f with Key's "s" prefix are the same bytes).
func TestResultsEqualNoDelimiterAliasing(t *testing.T) {
	a := res([]string{"x", "y"}, []sqldb.Value{sqldb.Str("a\x1fsb"), sqldb.Str("c")})
	b := res([]string{"x", "y"}, []sqldb.Value{sqldb.Str("a"), sqldb.Str("b\x1fsc")})
	if ResultsEqual(a, b) {
		t.Error("rows that differ only in where a delimiter byte falls compare equal")
	}
}

func TestResultsEqualProperties(t *testing.T) {
	gen := func(vals []int8) *sqlexec.Result {
		r := &sqlexec.Result{Columns: []string{"v"}}
		for _, v := range vals {
			r.Rows = append(r.Rows, sqldb.Row{sqldb.Int(int64(v))})
		}
		return r
	}
	reflexive := func(vals []int8) bool {
		r := gen(vals)
		return ResultsEqual(r, r)
	}
	if err := quick.Check(reflexive, nil); err != nil {
		t.Error(err)
	}
	symmetric := func(a, b []int8) bool {
		ra, rb := gen(a), gen(b)
		return ResultsEqual(ra, rb) == ResultsEqual(rb, ra)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
}

// fixedSystem returns canned SQL per case.
type fixedSystem struct {
	name string
	sql  map[string]string
}

func (f *fixedSystem) Name() string { return f.name }
func (f *fixedSystem) Generate(c *task.Case) (string, error) {
	return f.sql[c.ID], nil
}

func evalFixture() (map[string]*sqldb.Database, []*task.Case) {
	db := sqldb.NewDatabase("d1")
	tbl := sqldb.NewTable("T", sqldb.Column{Name: "X", Type: "INTEGER"})
	tbl.MustAppend(sqldb.Int(1))
	tbl.MustAppend(sqldb.Int(2))
	tbl.MustAppend(sqldb.Int(3))
	db.AddTable(tbl)
	cases := []*task.Case{
		{ID: "c1", DB: "d1", Difficulty: task.Simple, Question: "sum", GoldSQL: "SELECT SUM(X) FROM T"},
		{ID: "c2", DB: "d1", Difficulty: task.Moderate, Question: "count", GoldSQL: "SELECT COUNT(*) FROM T"},
		{ID: "c3", DB: "d1", Difficulty: task.Challenging, Question: "max", GoldSQL: "SELECT MAX(X) FROM T"},
	}
	return map[string]*sqldb.Database{"d1": db}, cases
}

func TestRunnerScoresSystems(t *testing.T) {
	dbs, cases := evalFixture()
	runner := NewRunner(dbs)
	sys := &fixedSystem{name: "fixed", sql: map[string]string{
		"c1": "SELECT 6",               // correct by value
		"c2": "SELECT COUNT(X) FROM T", // correct
		"c3": "SELECT MIN(X) FROM T",   // wrong
	}}
	rep, err := runner.RunContext(context.Background(), sys, cases)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.EX(""); got < 66 || got > 67 {
		t.Errorf("EX(all) = %.2f, want 66.67", got)
	}
	if rep.EX(task.Simple) != 100 {
		t.Errorf("EX(simple) = %v", rep.EX(task.Simple))
	}
	if rep.EX(task.Challenging) != 0 {
		t.Errorf("EX(challenging) = %v", rep.EX(task.Challenging))
	}
	if correct, total := rep.Counts(""); total-correct != 1 {
		t.Errorf("failures = %d, want 1", total-correct)
	}
}

func TestRunnerTreatsBrokenSQLAsIncorrect(t *testing.T) {
	dbs, cases := evalFixture()
	runner := NewRunner(dbs)
	sys := &fixedSystem{name: "broken", sql: map[string]string{
		"c1": "SELEC nope", "c2": "SELECT * FROM MISSING", "c3": "",
	}}
	rep, err := runner.RunContext(context.Background(), sys, cases)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EX("") != 0 {
		t.Errorf("broken SQL scored %v", rep.EX(""))
	}
}

func TestFormatTableAndRank(t *testing.T) {
	dbs, cases := evalFixture()
	runner := NewRunner(dbs)
	good := &fixedSystem{name: "good", sql: map[string]string{
		"c1": "SELECT SUM(X) FROM T", "c2": "SELECT COUNT(*) FROM T", "c3": "SELECT MAX(X) FROM T",
	}}
	bad := &fixedSystem{name: "bad", sql: map[string]string{}}
	repGood, _ := runner.RunContext(context.Background(), good, cases)
	repBad, _ := runner.RunContext(context.Background(), bad, cases)
	table := FormatTable("title", []*Report{repBad, repGood})
	if !strings.Contains(table, "title") || !strings.Contains(table, "good") {
		t.Errorf("table rendering broken:\n%s", table)
	}
	if Rank([]*Report{repBad, repGood}, "good") != 1 {
		t.Error("good should rank first")
	}
	if Rank([]*Report{repBad, repGood}, "bad") != 2 {
		t.Error("bad should rank second")
	}
	if Rank([]*Report{repBad, repGood}, "missing") != -1 {
		t.Error("unknown system should rank -1")
	}
}

func TestRunnerUnknownDatabase(t *testing.T) {
	runner := NewRunner(map[string]*sqldb.Database{})
	_, err := runner.Evaluate(&task.Case{ID: "x", DB: "nope"}, "SELECT 1")
	if err == nil {
		t.Error("unknown database should error")
	}
}

// stubSystem is a deterministic System for runner tests: correct SQL for
// even-indexed cases, failing SQL for every third, broken SQL otherwise.
type stubSystem struct{ name string }

func (s *stubSystem) Name() string { return s.name }

func (s *stubSystem) Generate(c *task.Case) (string, error) {
	switch {
	case strings.HasSuffix(c.ID, "0") || strings.HasSuffix(c.ID, "2") ||
		strings.HasSuffix(c.ID, "4") || strings.HasSuffix(c.ID, "6") ||
		strings.HasSuffix(c.ID, "8"):
		return c.GoldSQL, nil
	case strings.HasSuffix(c.ID, "3"):
		return "SELECT nope FROM missing", nil
	default:
		return "SELECT V FROM T WHERE V < 0", nil
	}
}

func runnerFixture(n int) (*Runner, []*task.Case) {
	db := sqldb.NewDatabase("d")
	tbl := sqldb.NewTable("T", sqldb.Column{Name: "V"})
	for i := 0; i < 10; i++ {
		tbl.MustAppend(sqldb.Int(int64(i)))
	}
	db.AddTable(tbl)
	r := NewRunner(map[string]*sqldb.Database{"d": db})
	cases := make([]*task.Case, n)
	for i := range cases {
		cases[i] = &task.Case{
			ID:         fmt.Sprintf("case-%03d", i),
			DB:         "d",
			GoldSQL:    fmt.Sprintf("SELECT V FROM T WHERE V >= %d", i%10),
			Difficulty: task.Simple,
		}
	}
	return r, cases
}

func TestRunParallelMatchesSequential(t *testing.T) {
	sys := &stubSystem{name: "stub"}
	_, cases := runnerFixture(60)

	seqRunner, _ := runnerFixture(0)
	seqRunner.SetWorkers(1)
	seq, err := seqRunner.RunContext(context.Background(), sys, cases)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 4, 8} {
		parRunner, _ := runnerFixture(0)
		parRunner.SetWorkers(workers)
		par, err := parRunner.RunContext(context.Background(), sys, cases)
		if err != nil {
			t.Fatal(err)
		}
		if len(par.Outcomes) != len(seq.Outcomes) {
			t.Fatalf("workers=%d: %d outcomes, want %d", workers, len(par.Outcomes), len(seq.Outcomes))
		}
		for i := range seq.Outcomes {
			s, p := seq.Outcomes[i], par.Outcomes[i]
			if s.Case.ID != p.Case.ID || s.SQL != p.SQL || s.Correct != p.Correct || s.Err != p.Err {
				t.Errorf("workers=%d outcome %d differs: seq %+v, par %+v", workers, i, s, p)
			}
		}
		if seq.EX("") != par.EX("") {
			t.Errorf("workers=%d EX %v, want %v", workers, par.EX(""), seq.EX(""))
		}
	}
}

func TestRunParallelSharedGoldCache(t *testing.T) {
	// Many cases sharing few distinct gold statements: concurrent goldFor
	// calls must neither race nor duplicate entries visibly.
	sys := &stubSystem{name: "stub"}
	r, cases := runnerFixture(40)
	r.SetWorkers(8)
	rep, err := r.RunContext(context.Background(), sys, cases)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 40 {
		t.Fatalf("got %d outcomes", len(rep.Outcomes))
	}
	// Second run hits the warm cache and must agree.
	rep2, err := r.RunContext(context.Background(), sys, cases)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Outcomes {
		if rep.Outcomes[i].Correct != rep2.Outcomes[i].Correct {
			t.Fatalf("outcome %d unstable across runs", i)
		}
	}
}

func TestRunReportsLowestIndexGoldError(t *testing.T) {
	sys := &stubSystem{name: "stub"}
	r, cases := runnerFixture(20)
	cases[7].GoldSQL = "SELECT broken FROM nowhere"
	cases[13].GoldSQL = "SELECT broken FROM nowhere"
	r.SetWorkers(4)
	_, err := r.RunContext(context.Background(), sys, cases)
	if err == nil {
		t.Fatal("expected gold failure")
	}
	if !strings.Contains(err.Error(), "case-007") {
		t.Errorf("error should name the first failing case (case-007): %v", err)
	}
}

func TestSetWorkersClamps(t *testing.T) {
	r, cases := runnerFixture(3)
	r.SetWorkers(-5)
	if r.workers != 1 {
		t.Errorf("workers = %d, want 1", r.workers)
	}
	rep, err := r.RunContext(context.Background(), &stubSystem{name: "s"}, cases)
	if err != nil || len(rep.Outcomes) != 3 {
		t.Fatalf("sequential fallback broken: %v, %d outcomes", err, len(rep.Outcomes))
	}
}

func TestPrewarmGoldPopulatesCache(t *testing.T) {
	r, cases := runnerFixture(15)
	r.SetWorkers(4)
	r.PrewarmGold(cases)
	for _, c := range cases {
		r.goldMu.RLock()
		_, ok := r.gold[c.ID]
		r.goldMu.RUnlock()
		if !ok {
			t.Errorf("gold for %s not prewarmed", c.ID)
		}
	}
}
