package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"genedit/internal/bench"
	"genedit/internal/eval"
	"genedit/internal/pipeline"
	"genedit/internal/sqlexec"
	"genedit/internal/task"
	"genedit/internal/workload"
)

// exhibits is the batch use developers and CI pay for: regenerating the
// paper's Table 1 (five baselines and GenEdit) and Table 2 (GenEdit and its
// five operator ablations). One op evaluates one case on one of the twelve
// system rows — sys.GenerateContext, then Runner.Evaluate against gold — in
// the seed's shuffle of all (system, case) pairs; each pass over the pairs
// gets a fresh eval.Runner, as each table run does.

// exRow is one system's EX row, in the shape of BENCH_N.json's tables.
type exRow struct {
	System      string  `json:"system"`
	Simple      float64 `json:"ex_simple"`
	Moderate    float64 `json:"ex_moderate"`
	Challenging float64 `json:"ex_challenging"`
	All         float64 `json:"ex_all"`
}

// goldenTables are table1 and table2 of BENCH_6.json — bit-identical to
// BENCH_0.json's — which the exhibits must reproduce at the seeds below.
//
//go:embed golden_ex.json
var goldenTablesJSON []byte

const (
	goldenSeed      = 1
	goldenModelSeed = 42
	table1Rows      = 6 // the first six systems are Table 1, the rest Table 2
)

type exhibits struct {
	env     runEnv
	suite   *workload.Suite
	systems []eval.ContextSystem
	genEdit []bool // per system: a GenEdit pipeline (else a baseline)
	perm    []int  // shuffle of system*len(cases)+case
	pinned  []string
	correct []bool

	mu      sync.Mutex
	runners map[int64]*eval.Runner // per pass

	suiteGen time.Duration
}

func newExhibits(env runEnv) *exhibits { return &exhibits{env: env} }

func (x *exhibits) expectOps() int { return int(x.env.length.Seconds() * 3000) }

func (x *exhibits) passOps() int { return len(x.perm) }

// contextBaseline gives a baseline the GenerateContext the GenEdit systems
// have, so one op calls every row the same way.
type contextBaseline struct{ eval.System }

func (b contextBaseline) GenerateContext(_ context.Context, c *task.Case) (string, error) {
	return b.Generate(c)
}

func (x *exhibits) setUp() error {
	start := time.Now()
	x.suite = workload.NewSuite(x.env.seed)
	x.suiteGen = time.Since(start)
	x.systems, x.genEdit = nil, nil
	for _, b := range bench.AllBaselines(x.suite, x.env.modelSeed) {
		x.systems = append(x.systems, contextBaseline{b})
		x.genEdit = append(x.genEdit, false)
	}
	rows := append([]bench.Ablation{{Name: "GenEdit", Cfg: pipeline.DefaultConfig()}}, bench.Table2Ablations()...)
	for _, row := range rows {
		sys, err := bench.NewGenEditSystem(row.Name, x.suite, row.Cfg, x.env.modelSeed)
		if err != nil {
			return err
		}
		x.systems = append(x.systems, sys)
		x.genEdit = append(x.genEdit, true)
	}

	// Warm pass: every pair once, pinning its SQL and whether it is correct.
	n := len(x.systems) * len(x.suite.Cases)
	x.perm = permutation(x.env.seed, n)
	x.pinned = make([]string, n)
	x.correct = make([]bool, n)
	x.runners = make(map[int64]*eval.Runner)
	ctx := context.Background()
	errs := make([]error, n)
	eval.ForEach(ctx, x.env.clients, n, func(i int) {
		pair := x.perm[i]
		sys, c := x.pair(pair)
		sql, err := sys.GenerateContext(ctx, c)
		if err != nil {
			errs[i] = err
			return
		}
		x.pinned[pair] = sql
		x.correct[pair], errs[i] = x.runner(-1).Evaluate(c, sql)
	})
	return errors.Join(errs...)
}

func (x *exhibits) pair(pair int) (eval.ContextSystem, *task.Case) {
	return x.systems[pair/len(x.suite.Cases)], x.suite.Cases[pair%len(x.suite.Cases)]
}

// runner returns the pass's eval.Runner, made when the pass's first op asks.
func (x *exhibits) runner(pass int64) *eval.Runner {
	x.mu.Lock()
	defer x.mu.Unlock()
	r := x.runners[pass]
	if r == nil {
		r = eval.NewRunner(x.suite.Databases)
		x.runners[pass] = r
		delete(x.runners, pass-2) // no client is still two passes behind
	}
	return r
}

func (x *exhibits) tearDown() {}

func (x *exhibits) measure(h *harness) error {
	ctx := context.Background()
	n := int64(len(x.perm))
	errs := make([]error, h.clients)
	h.active(func(cl int, rec *clientRec) {
		for !h.expired() {
			i := h.next()
			pair := requestIndex(x.perm, i)
			sys, c := x.pair(pair)
			runner := x.runner(i / n)
			start := time.Now()
			var out outcome
			sql, err := sys.GenerateContext(ctx, c)
			if err == nil {
				var ok bool
				if ok, err = runner.Evaluate(c, sql); err == nil && (sql != x.pinned[pair] || ok != x.correct[pair]) {
					out.wrong = 1
				}
			}
			if err != nil {
				out.failed, errs[cl] = 1, err
			}
			rec.done(start, out)
		}
	})
	return errors.Join(errs...)
}

// tables assembles the pinned outcomes into the two EX tables.
func (x *exhibits) tables() map[string][]exRow {
	nc := len(x.suite.Cases)
	out := make(map[string][]exRow)
	for si, sys := range x.systems {
		rep := &eval.Report{System: sys.Name()}
		for ci, c := range x.suite.Cases {
			rep.Outcomes = append(rep.Outcomes, eval.Outcome{Case: c, SQL: x.pinned[si*nc+ci], Correct: x.correct[si*nc+ci]})
		}
		table := "table1"
		if si >= table1Rows {
			table = "table2"
		}
		out[table] = append(out[table], exRow{
			System: rep.System, Simple: rep.EX(task.Simple), Moderate: rep.EX(task.Moderate),
			Challenging: rep.EX(task.Challenging), All: rep.EX(""),
		})
	}
	return out
}

func (x *exhibits) verify(v *verifier) (float64, string) {
	digest := sha256.New()
	correct := 0
	for pair, sql := range x.pinned {
		sys, c := x.pair(pair)
		fmt.Fprintf(digest, "%s\x00%s\x00%s\x00", sys.Name(), c.ID, sql)
		if x.correct[pair] {
			correct++
		}
	}
	if x.env.seed == goldenSeed && x.env.modelSeed == goldenModelSeed {
		var want map[string][]exRow
		err := json.Unmarshal(goldenTablesJSON, &want)
		got := x.tables()
		v.check("EX rows of Table 1 and Table 2 equal BENCH_6.json bit for bit",
			err == nil && reflect.DeepEqual(got, want), "got %+v, want %+v (%v)", got, want, err)
	}
	return float64(correct) / float64(len(x.pinned)), fmt.Sprintf("%x", digest.Sum(nil))
}

func (x *exhibits) traced(tr *tracer, out *layerValues) (phaseResult, error) {
	ctx := context.Background()
	out.set("workload.suite_gen_ms", float64(x.suiteGen)/1e6, 1)
	measureEmbedText(x.suite.Cases, out)
	if _, err := buildTimedEngines(tr, x.suite, x.env.modelSeed, out); err != nil {
		return phaseResult{}, err
	}

	// Untraced phase.
	h := newHarness(x.env.clients, x.env.length*3/10, x.expectOps(), x.passOps())
	rt0 := readRuntime()
	if err := x.measure(h); err != nil {
		return phaseResult{}, err
	}
	setRuntime(rt0, readRuntime(), out)
	phase := h.result()

	// Traced phase: one client over the same pair sequence, each op once
	// plain and once with a span around the generation and the evaluation.
	// Gold results are cached up front (and timed on their own below), so
	// the two runs of an op do the same work.
	runner := eval.NewRunner(x.suite.Databases)
	runner.PrewarmGold(x.suite.Cases)
	deadline := time.Now().Add(x.env.length * 3 / 10)
	var plain, instrumented time.Duration
	ops := 0
	for i := int64(0); time.Now().Before(deadline); i++ {
		pair := requestIndex(x.perm, i)
		sys, c := x.pair(pair)
		name := "baselines.generate"
		if x.genEdit[pair/len(x.suite.Cases)] {
			name = "pipeline.generate"
		}
		run := func(traced bool) error {
			span := func(string) func() { return func() {} }
			if traced {
				tr.nextOp()
				span = func(name string) func() {
					id := tr.begin(name)
					return func() { tr.end(id) }
				}
			}
			start := time.Now()
			endOp := span("op")
			end := span(name)
			sql, err := sys.GenerateContext(ctx, c)
			end()
			if err == nil {
				end = span("eval.evaluate")
				_, err = runner.Evaluate(c, sql)
				end()
			}
			endOp()
			if traced {
				instrumented += time.Since(start)
			} else {
				plain += time.Since(start)
			}
			return err
		}
		if err := errors.Join(run(i%2 == 0), run(i%2 != 0)); err != nil {
			return phaseResult{}, err
		}
		ops++
	}
	out.set("trace.overhead_share", 1-share(float64(plain), float64(instrumented)), ops)

	// Gold execution on its own: each case's gold SQL on a fresh executor.
	tr.nextOp()
	execs := make(map[string]*sqlexec.Executor)
	for _, db := range sortedDBs(x.suite) {
		execs[db] = sqlexec.New(x.suite.Databases[db])
	}
	var goldErr error
	tr.timed("eval.gold", func() {
		for _, c := range x.suite.Cases {
			if _, err := execs[c.DB].Query(c.GoldSQL); err != nil {
				goldErr = err
			}
		}
	})
	if goldErr != nil {
		return phaseResult{}, goldErr
	}

	// The two tables through the entry points benchrunner times.
	var err error
	tr.timed("bench.table1", func() { _, err = bench.Table1Context(ctx, x.suite, x.env.modelSeed) })
	if err != nil {
		return phaseResult{}, err
	}
	tr.timed("bench.table2", func() {
		_, err = bench.RunAblationsContext(ctx, x.suite, x.env.modelSeed, bench.Table2Ablations())
	})
	if err != nil {
		return phaseResult{}, err
	}

	totals := totalsByName(tr.spans)
	per := func(metric, span string, div float64, n int) {
		if n == 0 {
			n = totals[span].count
		}
		out.set(metric, share(float64(totals[span].total)/div, float64(n)), totals[span].count)
	}
	per("eval.evaluate_us_per_case", "eval.evaluate", 1e3, 0)
	per("baselines.generate_us_per_case", "baselines.generate", 1e3, 0)
	per("pipeline.generate_us", "pipeline.generate", 1e3, 0)
	per("eval.gold_us_per_case", "eval.gold", 1e3, len(x.suite.Cases))
	per("bench.table1_wall_ms", "bench.table1", 1e6, 0)
	per("bench.table2_wall_ms", "bench.table2", 1e6, 0)

	// What a pass executes: every pair's SQL and, once per case, its gold.
	var pass []statement
	seenGold := make(map[string]bool)
	for i := range x.perm {
		pair := requestIndex(x.perm, int64(i))
		_, c := x.pair(pair)
		pass = append(pass, statement{c.DB, x.pinned[pair]})
		if !seenGold[c.ID] {
			seenGold[c.ID] = true
			pass = append(pass, statement{c.DB, c.GoldSQL})
		}
	}
	replayStatements(tr, x.suite, pass, out)
	return phase, nil
}
