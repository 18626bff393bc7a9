// Package eval implements the benchmark evaluation: BIRD's Execution
// Accuracy (EX) metric, the per-system runner, and the table formatting the
// benchmark harness prints.
package eval

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"genedit/internal/generr"
	"genedit/internal/sqldb"
	"genedit/internal/sqlexec"
	"genedit/internal/task"
)

// System is anything that turns a benchmark case into SQL: the GenEdit
// pipeline, a baseline, or an ablated variant. Runner.RunContext calls Generate
// from multiple goroutines (bounded by SetWorkers), so implementations must
// be safe for concurrent use; a System with per-call mutable state must
// synchronize it or be run with SetWorkers(1).
type System interface {
	Name() string
	Generate(c *task.Case) (string, error)
}

// ContextSystem is implemented by systems whose generation honors context
// cancellation. RunContext prefers GenerateContext when available, so a
// deadline propagates into the pipeline mid-case instead of only between
// cases.
type ContextSystem interface {
	System
	GenerateContext(ctx context.Context, c *task.Case) (string, error)
}

// Outcome is one case's evaluation result.
type Outcome struct {
	Case    *task.Case
	SQL     string
	Correct bool
	// Err records generation or execution failure.
	Err string
}

// Report aggregates a system's outcomes.
type Report struct {
	System   string
	Outcomes []Outcome
}

// ResultsEqual implements the EX comparison: results are equal when they
// have the same column count and the same multiset of rows, in any order.
// BIRD's evaluator compares set(rows) instead, so it also equates results
// that differ only in how often a row repeats. On NewSuite(1) no verdict of
// GenEdit or of its ablations differs between the two.
func ResultsEqual(a, b *sqlexec.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Rows) != len(b.Rows) || len(a.Columns) != len(b.Columns) {
		return false
	}
	// Rows are keyed by sqldb's length-prefixed composite key, the one the
	// executor groups by: two rows share a key iff their values are pairwise
	// Key-equal, whatever bytes the values hold.
	counts := make(map[string]int, len(a.Rows))
	var key []byte
	for _, r := range a.Rows {
		key = sqldb.AppendCompositeKey(key[:0], r)
		counts[string(key)]++
	}
	for _, r := range b.Rows {
		key = sqldb.AppendCompositeKey(key[:0], r)
		if counts[string(key)] == 0 {
			return false
		}
		counts[string(key)]--
	}
	return true
}

// Runner evaluates systems over a fixed case set, caching gold results. A
// Runner fans RunContext out across a bounded worker pool (see SetWorkers);
// the gold cache is guarded internally, and the substrate RunContext drives —
// the executors (read-only database, synchronized statement cache), the
// simulated model (pure functions of its seed) and the knowledge-set read
// paths — is concurrency-safe, so outcomes are deterministic and
// input-ordered regardless of worker count.
type Runner struct {
	dbs     map[string]*sqldb.Database
	execs   map[string]*sqlexec.Executor
	workers int

	goldMu sync.RWMutex
	gold   map[string]*sqlexec.Result
}

// NewRunner builds a runner over the benchmark databases. Workers default to
// GOMAXPROCS.
func NewRunner(dbs map[string]*sqldb.Database) *Runner {
	r := &Runner{
		dbs:     dbs,
		execs:   make(map[string]*sqlexec.Executor, len(dbs)),
		gold:    make(map[string]*sqlexec.Result),
		workers: runtime.GOMAXPROCS(0),
	}
	for name, db := range dbs {
		r.execs[name] = sqlexec.New(db)
	}
	return r
}

// SetWorkers bounds the worker pool RunContext fans cases out across. Values
// below 1 are clamped to 1 (strictly sequential) rather than accepted — a
// non-positive pool would otherwise deadlock the dispatch channel. Workers
// reports the effective value. SetWorkers is a setup-time knob: it is not
// synchronized against an in-flight RunContext, so configure the pool before
// sharing the runner across goroutines.
func (r *Runner) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	r.workers = n
}

// Workers returns the effective worker-pool bound (always >= 1).
func (r *Runner) Workers() int { return r.workers }

// goldFor returns the cached gold result for a case, executing and caching
// the gold SQL on first use. Safe for concurrent callers: a lost race costs
// one redundant (deterministic, identical) execution, never a wrong result.
func (r *Runner) goldFor(c *task.Case, exec *sqlexec.Executor) (*sqlexec.Result, error) {
	r.goldMu.RLock()
	g, ok := r.gold[c.ID]
	r.goldMu.RUnlock()
	if ok {
		return g, nil
	}
	g, err := exec.Query(c.GoldSQL)
	if err != nil {
		return nil, fmt.Errorf("case %s: gold SQL failed: %w", c.ID, err)
	}
	r.goldMu.Lock()
	if cached, ok := r.gold[c.ID]; ok {
		g = cached
	} else {
		r.gold[c.ID] = g
	}
	r.goldMu.Unlock()
	return g, nil
}

// Evaluate scores one predicted SQL against a case's gold.
func (r *Runner) Evaluate(c *task.Case, predicted string) (bool, error) {
	exec, ok := r.execs[c.DB]
	if !ok {
		return false, fmt.Errorf("case %s: unknown database %q", c.ID, c.DB)
	}
	gold, err := r.goldFor(c, exec)
	if err != nil {
		return false, err
	}
	pred, err := exec.Query(predicted)
	if err != nil {
		return false, nil // predicted SQL fails to execute: not correct
	}
	return ResultsEqual(gold, pred), nil
}

// PrewarmGold executes and caches the gold results for the cases, fanning
// out across the worker pool. RunContext populates the cache lazily (each
// case is dispatched to exactly one worker, so golds are never computed
// twice within a run); PrewarmGold is for callers that want to front-load the
// gold execution cost — e.g. before timing a system. Gold failures are
// deliberately not reported here: RunContext surfaces them per-case with
// sequential-identical error selection.
func (r *Runner) PrewarmGold(cases []*task.Case) {
	r.forEachCase(context.Background(), cases, func(i int, c *task.Case) {
		if exec, ok := r.execs[c.DB]; ok {
			_, _ = r.goldFor(c, exec)
		}
	})
}

// ForEach runs fn(i) for every i in [0, n), fanned out across at most
// workers goroutines (clamped to [1, n]). It is the bounded worker-pool
// primitive behind Runner.RunContext and genedit.Service.GenerateBatch. Once ctx is
// done no further indices are dispatched; indices already handed to a worker
// run to completion, and ForEach returns only after all dispatched work has
// finished. Callers detect an early stop via ctx.Err().
//
// With workers <= 1 the loop runs strictly sequentially on the calling
// goroutine.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		// select picks at random among ready cases, so a done ctx alone
		// would not stop a send to an idle worker.
		if ctx.Err() != nil {
			break
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
}

// forEachCase applies fn to every case, fanning out across the worker pool.
func (r *Runner) forEachCase(ctx context.Context, cases []*task.Case, fn func(i int, c *task.Case)) {
	ForEach(ctx, r.workers, len(cases), func(i int) { fn(i, cases[i]) })
}

// RunContext evaluates a system over the cases. Results are input-ordered
// and identical to a sequential run; on evaluation failure the error
// reported is the one a sequential run would have hit first. Once ctx is
// done no further cases are dispatched (and a ContextSystem aborts
// mid-case), and the run returns an error matching generr.ErrCanceled.
func (r *Runner) RunContext(ctx context.Context, sys System, cases []*task.Case) (*Report, error) {
	csys, _ := sys.(ContextSystem)
	outcomes := make([]Outcome, len(cases))
	errs := make([]error, len(cases))
	r.forEachCase(ctx, cases, func(i int, c *task.Case) {
		var (
			sql string
			err error
		)
		if csys != nil {
			sql, err = csys.GenerateContext(ctx, c)
		} else {
			sql, err = sys.Generate(c)
		}
		out := Outcome{Case: c, SQL: sql}
		if err != nil {
			out.Err = err.Error()
		} else {
			correct, evalErr := r.Evaluate(c, sql)
			if evalErr != nil {
				errs[i] = evalErr
			}
			out.Correct = correct
		}
		outcomes[i] = out
	})
	if err := generr.FromContext(ctx); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Report{System: sys.Name(), Outcomes: outcomes}, nil
}

// Counts returns (correct, total) for a difficulty; empty difficulty means
// all cases.
func (rep *Report) Counts(d task.Difficulty) (correct, total int) {
	for _, o := range rep.Outcomes {
		if d != "" && o.Case.Difficulty != d {
			continue
		}
		total++
		if o.Correct {
			correct++
		}
	}
	return correct, total
}

// EX returns execution accuracy (percent) for a difficulty; empty
// difficulty means all cases.
func (rep *Report) EX(d task.Difficulty) float64 {
	correct, total := rep.Counts(d)
	if total == 0 {
		return 0
	}
	return 100 * float64(correct) / float64(total)
}

// Row renders the report as a benchmark table row (Simple, Moderate,
// Challenging, All), matching the paper's table layout.
func (rep *Report) Row() string {
	return fmt.Sprintf("%-22s %7.2f %9.2f %12.2f %7.2f",
		rep.System,
		rep.EX(task.Simple), rep.EX(task.Moderate), rep.EX(task.Challenging), rep.EX(""))
}

// TableHeader is the header matching Row's layout.
func TableHeader() string {
	return fmt.Sprintf("%-22s %7s %9s %12s %7s", "Method", "Simple", "Moderate", "Challenging", "All")
}

// FormatTable renders reports as the paper-style table, preserving the
// given order.
func FormatTable(title string, reports []*Report) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	sb.WriteString(TableHeader() + "\n")
	sb.WriteString(strings.Repeat("-", 62) + "\n")
	for _, rep := range reports {
		sb.WriteString(rep.Row() + "\n")
	}
	return sb.String()
}

// Rank returns the 1-based position of the named system when reports are
// ordered by overall EX descending (ties broken by name).
func Rank(reports []*Report, name string) int {
	sorted := append([]*Report(nil), reports...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i].EX(""), sorted[j].EX("")
		if a != b {
			return a > b
		}
		return sorted[i].System < sorted[j].System
	})
	for i, rep := range sorted {
		if rep.System == name {
			return i + 1
		}
	}
	return -1
}
