package main

import (
	"context"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"genedit"
	"genedit/internal/admission"
	"genedit/internal/embed"
	"genedit/internal/gencache"
	gmetrics "genedit/internal/metrics"
	"genedit/internal/pipeline"
	"genedit/internal/simllm"
	"genedit/internal/sqlexec"
	"genedit/internal/sqlparse"
	"genedit/internal/task"
	"genedit/internal/workload"
)

// sortedDBs lists a suite's databases in name order.
func sortedDBs(suite *workload.Suite) []string {
	dbs := make([]string, 0, len(suite.Databases))
	for db := range suite.Databases {
		dbs = append(dbs, db)
	}
	sort.Strings(dbs)
	return dbs
}

// buildTimedEngines builds one engine per database the way Service.build
// does, but over the span-recording model, timing the knowledge build, the
// engine (index) build and a WithKnowledge rebuild as it goes.
func buildTimedEngines(tr *tracer, suite *workload.Suite, modelSeed uint64, out *layerValues) (map[string]*pipeline.Engine, error) {
	model := &timedModel{inner: simllm.New(simllm.GenEditProfile(), suite.Registry, modelSeed), tr: tr}
	engines := make(map[string]*pipeline.Engine, len(suite.Databases))
	const maxRebuilds = 8 // enough samples; serve_scaled has four times the tenants
	rebuilds := 0
	tr.nextOp()
	for _, db := range sortedDBs(suite) {
		id := tr.begin("knowledge.build")
		kset, err := suite.BuildKnowledge(db)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		tr.timed("pipeline.engine_build", func() {
			engines[db] = pipeline.New(model, kset, suite.Databases[db], pipeline.DefaultConfig())
		})
		if rebuilds < maxRebuilds {
			rebuilds++
			tr.timed("pipeline.with_knowledge", func() { engines[db].WithKnowledge(kset) })
		}
	}
	totals := totalsByName(tr.spans)
	n := len(engines)
	out.perOp("knowledge.build_ms_per_db", totals["knowledge.build"].total, n, 1e6, n)
	out.perOp("pipeline.engine_build_ms", totals["pipeline.engine_build"].total, n, 1e6, n)
	out.perOp("pipeline.with_knowledge_ms", totals["pipeline.with_knowledge"].total, rebuilds, 1e6, rebuilds)
	return engines, nil
}

// measureEmbedText times embed.Text over the questions the workload asks.
func measureEmbedText(cases []*task.Case, out *layerValues) {
	n := min(len(cases), 512)
	start := time.Now()
	for _, c := range cases[:n] {
		embed.Text(c.Question)
	}
	out.perOp("embed.text_us", int64(time.Since(start)), n, 1e3, n)
}

// retrievalTotals sums the retrieval counters of every engine a service has
// built.
func retrievalTotals(svc *genedit.Service) embed.SearchStats {
	var sum embed.SearchStats
	for _, rs := range svc.RetrievalStats() {
		for _, st := range []embed.SearchStats{rs.Examples, rs.Instructions} {
			sum.Searches += st.Searches
			sum.ANNSearches += st.ANNSearches
			sum.CandidatesScanned += st.CandidatesScanned
			sum.PartitionsProbed += st.PartitionsProbed
			sum.FullSweeps += st.FullSweeps
		}
	}
	return sum
}

// setEmbed reports the retrieval work between two counter snapshots.
func setEmbed(before, after embed.SearchStats, out *layerValues) {
	searches := float64(after.Searches - before.Searches)
	ann := float64(after.ANNSearches - before.ANNSearches)
	n := int(searches)
	out.set("embed.candidates_per_search", share(float64(after.CandidatesScanned-before.CandidatesScanned), searches), n)
	out.set("embed.ann_share", share(ann, searches), n)
	out.set("embed.partitions_per_search", share(float64(after.PartitionsProbed-before.PartitionsProbed), ann), int(ann))
	out.set("embed.full_sweeps", float64(after.FullSweeps-before.FullSweeps), n)
}

// runtimeSample reads the Go runtime's GC accounting.
type runtimeSample struct {
	gcCPU, busyCPU float64
	cycles         uint64
	heapLive       uint64
}

func readRuntime() runtimeSample {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(samples)
	return runtimeSample{
		gcCPU:    samples[0].Value.Float64(),
		busyCPU:  samples[1].Value.Float64() - samples[2].Value.Float64(),
		cycles:   samples[3].Value.Uint64(),
		heapLive: samples[4].Value.Uint64(),
	}
}

// setRuntime reports the collector's share of the CPU the process used
// between two samples.
func setRuntime(before, after runtimeSample, out *layerValues) {
	cycles := int(after.cycles - before.cycles)
	out.set("runtime.gc_cpu_share", share(after.gcCPU-before.gcCPU, after.busyCPU-before.busyCPU), cycles)
	out.set("runtime.gc_cycles", float64(cycles), cycles)
	out.set("runtime.heap_live_mb", float64(after.heapLive)/(1<<20), 1)
}

// measureGather times one scrape of the service's registry: Gather plus the
// text exposition.
func measureGather(reg *gmetrics.Registry, out *layerValues) error {
	const reps = 9
	times := make([]float64, reps)
	for i := range times {
		start := time.Now()
		if err := reg.Gather().WriteText(io.Discard); err != nil {
			return err
		}
		times[i] = float64(time.Since(start)) / 1e3
	}
	out.set("metrics.gather_us", median(times), reps)
	return nil
}

// batchedCallNS times call in spans of batchCalls back-to-back calls — Admit
// and a cache hit take a few hundred ns, below what a span can time singly —
// and returns the median time per call and the number of calls made.
func batchedCallNS(tr *tracer, name string, call func(i int) error) (float64, int, error) {
	const (
		batchCalls = 1000
		batches    = 20
	)
	per := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		var err error
		id := tr.begin(name)
		for i := 0; i < batchCalls && err == nil; i++ {
			err = call(i)
		}
		tr.end(id)
		if err != nil {
			return 0, 0, err
		}
		per = append(per, float64(tr.get(id).duration())/batchCalls)
	}
	return median(per), batches * batchCalls, nil
}

// measureAdmission times Admit plus release on a controller configured like
// the service's, called directly.
func measureAdmission(tr *tracer, cfg admission.Config, tenants []string, out *layerValues) error {
	ctrl := admission.New(cfg)
	defer ctrl.Close()
	ctx := context.Background()
	ns, calls, err := batchedCallNS(tr, "admission.admit", func(i int) error {
		release, err := ctrl.Admit(ctx, tenants[i%len(tenants)])
		if err == nil {
			release()
		}
		return err
	})
	out.set("admission.admit_ns", ns, calls)
	return err
}

// measureCacheHit times DoVersioned on warm keys of a cache sized like the
// service's, called directly.
func measureCacheHit(tr *tracer, size int, cases []*task.Case, out *layerValues) error {
	cache := gencache.New(size)
	ctx := context.Background()
	keys := make([]gencache.RequestKey, min(len(cases), size))
	rec := &pipeline.Record{}
	fill := func() (*pipeline.Record, error) { return rec, nil }
	for i := range keys {
		c := cases[i]
		keys[i] = gencache.RequestKey{Database: c.DB, Version: 1, Question: c.Question, Evidence: c.Evidence}
		if _, _, err := cache.DoVersioned(ctx, keys[i], fill); err != nil {
			return err
		}
	}
	ns, calls, err := batchedCallNS(tr, "gencache.do_hit", func(i int) error {
		_, _, err := cache.DoVersioned(ctx, keys[i%len(keys)], fill)
		return err
	})
	out.set("gencache.do_hit_ns", ns, calls)
	return err
}

// statement is one SQL text a workload executed against a database.
type statement struct{ db, sql string }

// attemptedStatements lists what a generation executed, attempt by attempt.
func attemptedStatements(db string, rec *pipeline.Record) []statement {
	var out []statement
	for _, a := range rec.Attempts {
		if a.SQL != "" {
			out = append(out, statement{db, a.SQL})
		}
	}
	return out
}

// replayStatements reports the statement-level cost of the SQL a workload's
// pass executed, outside the pipeline: every distinct statement is parsed by
// sqlparse.Parse, then run twice on a fresh executor per database (cold:
// parse, compile, execute; warm: plan cached). The pass is then replayed in
// order once more for the statement cache's steady-state hit share.
func replayStatements(tr *tracer, suite *workload.Suite, pass []statement, out *layerValues) {
	seen := make(map[statement]bool, len(pass))
	var distinct []statement
	for _, st := range pass {
		if !seen[st] {
			seen[st] = true
			distinct = append(distinct, st)
		}
	}
	n := len(distinct)
	if n == 0 {
		return
	}
	tr.nextOp()
	tr.timed("sqlparse.parse", func() {
		for _, st := range distinct {
			_, _ = sqlparse.Parse(st.sql) // failing to parse is an outcome here, counted below
		}
	})
	execs := make(map[string]*sqlexec.Executor)
	for _, st := range distinct {
		if execs[st.db] == nil {
			execs[st.db] = sqlexec.New(suite.Databases[st.db])
		}
	}
	errors, rows := 0, 0
	tr.timed("sqlexec.query_cold", func() {
		for _, st := range distinct {
			res, err := execs[st.db].Query(st.sql)
			if err != nil {
				errors++
			} else {
				rows += len(res.Rows)
			}
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.timed("sqlexec.query_warm", func() {
		for _, st := range distinct {
			_, _ = execs[st.db].Query(st.sql)
		}
	})
	runtime.ReadMemStats(&after)

	var hits0, misses0, hits1, misses1 uint64
	for _, e := range execs {
		h, m := e.StatementCacheStats()
		hits0, misses0 = hits0+h, misses0+m
	}
	for _, st := range pass {
		_, _ = execs[st.db].Query(st.sql)
	}
	for _, e := range execs {
		h, m := e.StatementCacheStats()
		hits1, misses1 = hits1+h, misses1+m
	}

	totals := totalsByName(tr.spans)
	out.perOp("sqlparse.parse_us_per_stmt", totals["sqlparse.parse"].total, n, 1e3, n)
	out.perOp("sqlexec.query_cold_us_per_stmt", totals["sqlexec.query_cold"].total, n, 1e3, n)
	out.perOp("sqlexec.query_warm_us_per_stmt", totals["sqlexec.query_warm"].total, n, 1e3, n)
	out.set("sqlexec.allocs_per_stmt_warm", float64(after.Mallocs-before.Mallocs)/float64(n), n)
	out.set("sqlexec.stmtcache_hit_share", share(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)), len(pass))
	out.set("sqlexec.error_share", float64(errors)/float64(n), n)
	out.set("sqlexec.rows_per_stmt", share(float64(rows), float64(n-errors)), n-errors)
}
