// Substrate and serving micro-benchmarks. The paper's tables are regenerated
// and gated bit for bit by cmd/benchrunner -baseline, and end-to-end serving
// is measured by the repo benchmark (benchmark/); these isolate one layer:
//
//	go test -bench=. -run '^$' .
package genedit_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"genedit"
	"genedit/internal/bench"
	"genedit/internal/decompose"
	"genedit/internal/embed"
	"genedit/internal/eval"
	"genedit/internal/pipeline"
	"genedit/internal/sqldb"
	"genedit/internal/sqlexec"
	"genedit/internal/sqlparse"
	"genedit/internal/task"
	"genedit/internal/workload"
)

const (
	benchWorkloadSeed = 1
	benchModelSeed    = 42
)

// benchSuite is shared across benchmarks; workload generation is itself
// measured separately in BenchmarkSuiteGeneration.
var benchSuite = workload.NewSuite(benchWorkloadSeed)

// --- Substrate micro-benchmarks ---

func BenchmarkSuiteGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		workload.NewSuite(uint64(i + 1))
	}
}

func BenchmarkSQLParse(b *testing.B) {
	sql := benchSuite.CasesByDifficulty(task.Challenging)[0].GoldSQL
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLExecuteChallenging(b *testing.B) {
	c := benchSuite.CasesByDifficulty(task.Challenging)[0]
	exec := sqlexec.New(benchSuite.Databases[c.DB])
	// Query (not pre-parse + Exec): a statement-cache hit measures the
	// steady-state serving path — Exec would re-compile every iteration.
	if _, err := exec.Query(c.GoldSQL); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Query(c.GoldSQL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecomposeCompose(b *testing.B) {
	sql := benchSuite.CasesByDifficulty(task.Challenging)[0].GoldSQL
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frags, err := decompose.DecomposeSQL(sql)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := decompose.ComposeSQL(frags); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmbedAndSearch embeds a question and scores it against every
// example of a knowledge set: the query side of one retrieval pass.
func BenchmarkEmbedAndSearch(b *testing.B) {
	ix := embed.NewIndex()
	kset, err := benchSuite.BuildKnowledge("sports_holdings")
	if err != nil {
		b.Fatal(err)
	}
	for _, ex := range kset.Examples() {
		ix.Add(ex.ID, ex.Text())
	}
	scores := make([]float64, ix.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qv := embed.Text("quarter over quarter revenue per viewer for our organisations")
		ix.Scores(qv, embed.Norm2(qv), scores)
	}
}

// --- Hot-path micro-benchmarks (parallel eval); the SQL
// engine's own A/B benchmarks live in internal/sqlexec ---

// BenchmarkParallelEval runs the full GenEdit evaluation with varying worker
// counts; outcomes (and therefore EX) are identical across counts.
func BenchmarkParallelEval(b *testing.B) {
	sys, err := bench.NewGenEditSystem("GenEdit", benchSuite, pipeline.DefaultConfig(), benchModelSeed)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runner := eval.NewRunner(benchSuite.Databases)
			runner.SetWorkers(workers)
			var rep *eval.Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := runner.RunContext(context.Background(), sys, benchSuite.Cases)
				if err != nil {
					b.Fatal(err)
				}
				rep = r
			}
			b.StopTimer()
			b.ReportMetric(rep.EX(""), "EX-all%")
		})
	}
}

func BenchmarkPipelineSingleGeneration(b *testing.B) {
	sys, err := bench.NewGenEditSystem("GenEdit", benchSuite, pipeline.DefaultConfig(), benchModelSeed)
	if err != nil {
		b.Fatal(err)
	}
	c := benchSuite.CasesByDifficulty(task.Challenging)[0]
	engine := sys.Engine(c.DB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.GenerateContext(context.Background(), c.Question, c.Evidence); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Concurrent serving benchmarks (PR 5): generation cache, coalescing,
// sharded statement cache ---

// newServingService builds a prewarmed Service over the shared bench suite.
func newServingService(b *testing.B, opts ...genedit.Option) *genedit.Service {
	b.Helper()
	svc := genedit.NewService(genedit.NewBenchmark(benchWorkloadSeed),
		append([]genedit.Option{genedit.WithModelSeed(benchModelSeed)}, opts...)...)
	if err := svc.Prewarm(context.Background()); err != nil {
		b.Fatal(err)
	}
	return svc
}

// BenchmarkGenerationCache measures one repeated question through the
// serving path: "cold" (cache disabled) runs the full compounding-operator
// pipeline every time, "hit" serves the completed record from the versioned
// LRU, and "hit-parallel" hammers the hit path from all procs at once. The
// acceptance bar for the cache is hit >= 10x faster than cold.
func BenchmarkGenerationCache(b *testing.B) {
	ctx := context.Background()
	c := benchSuite.CasesByDifficulty(task.Challenging)[0]
	req := genedit.Request{Database: c.DB, Question: c.Question, Evidence: c.Evidence}

	b.Run("cold", func(b *testing.B) {
		svc := newServingService(b) // no cache: every request generates
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Generate(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		svc := newServingService(b, genedit.WithGenerationCache(256))
		if _, err := svc.Generate(ctx, req); err != nil { // warm the entry
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := svc.Generate(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if !resp.Cached {
				b.Fatal("expected a cache hit")
			}
		}
	})
	b.Run("hit-parallel", func(b *testing.B) {
		svc := newServingService(b, genedit.WithGenerationCache(256))
		if _, err := svc.Generate(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := svc.Generate(ctx, req); err != nil {
					b.Error(err) // Fatal must not run on a RunParallel worker
					return
				}
			}
		})
	})
}

// BenchmarkGenerationCoalescing: every iteration presents a fresh (never
// cached) question to GOMAXPROCS concurrent requesters; singleflight must
// collapse them onto one pipeline run, so per-iteration cost tracks ONE
// generation plus coordination, not N generations.
func BenchmarkGenerationCoalescing(b *testing.B) {
	ctx := context.Background()
	c := benchSuite.CasesByDifficulty(task.Challenging)[0]
	svc := newServingService(b, genedit.WithGenerationCache(4096))
	waiters := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := genedit.Request{
			Database: c.DB,
			Question: fmt.Sprintf("%s (load variant %d)", c.Question, i),
			Evidence: c.Evidence,
		}
		var wg sync.WaitGroup
		for w := 0; w < waiters; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := svc.Generate(ctx, req); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	st := svc.GenerationCacheStats()
	if b.N > 0 {
		b.ReportMetric(float64(st.Misses)/float64(b.N), "generations/iter")
	}
}

// BenchmarkStatementCacheParallel measures repeated cache-hit Query over a
// working set of statements, single-goroutine vs all procs. With the
// lock-striped shards, parallel per-op time must not degrade against the
// serial run (the old global mutex serialized every worker onto one lock).
func BenchmarkStatementCacheParallel(b *testing.B) {
	db := sqldb.NewDatabase("shardbench")
	t := sqldb.NewTable("T", sqldb.Column{Name: "A"}, sqldb.Column{Name: "B"})
	for i := 0; i < 8; i++ {
		t.MustAppend(sqldb.Int(int64(i)), sqldb.Str(fmt.Sprintf("v%d", i)))
	}
	db.AddTable(t)
	stmts := make([]string, 32)
	for i := range stmts {
		stmts[i] = fmt.Sprintf("SELECT A, B FROM T WHERE A >= %d", i%8)
		if i >= 8 {
			stmts[i] += fmt.Sprintf(" AND A < %d", i+2)
		}
	}
	exec := sqlexec.New(db)
	for _, sql := range stmts { // warm every statement
		if _, err := exec.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exec.Query(stmts[i%len(stmts)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := exec.Query(stmts[i%len(stmts)]); err != nil {
					b.Error(err) // Fatal must not run on a RunParallel worker
					return
				}
				i++
			}
		})
	})
}
