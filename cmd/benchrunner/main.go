// Command benchrunner regenerates every quantitative exhibit of the paper:
//
//	benchrunner -table 1            Table 1 (GenEdit vs baselines)
//	benchrunner -table 2            Table 2 (operator ablations)
//	benchrunner -table extra        design-choice ablations beyond Table 2
//	benchrunner -table edits        §4.2.3 edits-acceptance metrics
//	benchrunner -table improvement  continuous-improvement rounds (§4)
//	benchrunner -table miner        self-improving loop: failure mining convergence
//	benchrunner -table all          everything
//
// The -seed flag varies the synthetic workload; -modelseed varies the
// simulated model's deterministic draws. Paper reference numbers are printed
// alongside for comparison.
//
// -parallel N switches to closed-loop load mode instead of regenerating
// tables: N workers issue Generate requests against a serving Service (the
// whole eval set as the request mix, repeated), reporting throughput
// (gen/sec), p50/p95/p99 latency and generation-cache counters. -requests
// bounds the total request count and -gencache sizes the cache (0 = serve
// every request through the full pipeline):
//
//	benchrunner -parallel 8 -requests 4000
//	benchrunner -parallel 8 -requests 4000 -gencache 0     # uncached baseline
//
// Load mode scales: -scale N swaps the standard suite for the stress-scale
// suite (every domain cloned into N tenant databases with distinct seeded
// data), and -kscale M multiplies each database's query-log knowledge with
// parameter variants, growing the retrieval indexes past the ANN
// partitioning threshold. -approvers N runs N concurrent SME approver
// loops whose merges hot-swap engines (re-partitioning the retrieval
// indexes) while the load workers generate. The 100x hardening run is:
//
//	benchrunner -parallel 8 -requests 4000 -adversarial -scale 100 -approvers 4
//
// Load mode can also exercise the overload defenses: -adversarial swaps in
// the hostile request mix (hot-key skew on one tenant + cache-busting
// unique questions), -admitrate/-admitburst enable per-tenant token-bucket
// rate limiting, -maxinflight/-maxqueue bound concurrency with a
// deadline-aware queue, and -reqtimeout attaches a per-request deadline.
// The report then includes the outcome breakdown (ok / stale-served /
// rate-limited / overloaded / deadline-exceeded) and admission counters:
//
//	benchrunner -parallel 16 -requests 4000 -adversarial -admitrate 200 -maxinflight 8 -reqtimeout 2s
//
// Every load run ends with a dump of the run's metrics registry in
// Prometheus text exposition — the same series a geneditd /metrics scrape
// would serve for that traffic (-metricsdump=false to suppress;
// -tracesample N adds sampled per-operator latency histograms).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"genedit"
	"genedit/internal/bench"
	"genedit/internal/embed"
	"genedit/internal/eval"
	"genedit/internal/feedback"
	"genedit/internal/metrics"
	"genedit/internal/task"
	"genedit/internal/workload"
)

var paperTable1 = `Paper Table 1 (BIRD-dev 10%):
Method                  Simple  Moderate  Challenging     All
--------------------------------------------------------------
CHESS                    65.43     64.81        58.33   64.62
MAC-SQL                  65.73     52.69        40.28   59.39
TA-SQL                   63.14     48.60        36.11   56.19
DAIL-SQL                 62.50     43.20        37.50   54.30
C3-SQL                   58.90     38.50        31.90   50.20
GenEdit                  69.89     39.29        36.36   60.61`

var paperTable2 = `Paper Table 2 (ablations):
Method                  Simple  Moderate  Challenging     All
--------------------------------------------------------------
GenEdit                  69.89     39.29        36.36   60.61
w/o Schema Linking       67.74     42.86        18.18   58.33
w/o Instructions         58.06     28.57        36.36   50.00
w/o Examples             69.89     35.71         9.09   59.09
w/o Pseudo-SQL           62.37     25.00        18.18   50.76
w/o Decomposition        66.67     46.43        18.18   58.33`

// jsonRow is one system's EX row in the -json output.
type jsonRow struct {
	System      string  `json:"system"`
	Simple      float64 `json:"ex_simple"`
	Moderate    float64 `json:"ex_moderate"`
	Challenging float64 `json:"ex_challenging"`
	All         float64 `json:"ex_all"`
}

// allocStat is a -benchmem-style allocation summary for one exhibit:
// heap allocation count and megabytes allocated while regenerating it
// (runtime.MemStats deltas, so background allocation is included — treat
// as a trajectory signal, not an exact figure).
type allocStat struct {
	Allocs  uint64  `json:"allocs"`
	AllocMB float64 `json:"alloc_mb"`
}

// benchRecord is the machine-readable result file -json writes; committed
// baselines (BENCH_0.json) give future PRs a perf and accuracy trajectory.
// The parity gate (checkParity) compares Tables only; the remaining fields
// are informational and may grow without invalidating old baselines.
type benchRecord struct {
	Seed        uint64               `json:"seed"`
	ModelSeed   uint64               `json:"model_seed"`
	DurationsMS map[string]float64   `json:"durations_ms"`
	AllocStats  map[string]allocStat `json:"alloc_stats"`
	Tables      map[string][]jsonRow `json:"tables"`
}

func jsonRows(reports []*eval.Report) []jsonRow {
	out := make([]jsonRow, 0, len(reports))
	for _, rep := range reports {
		out = append(out, jsonRow{
			System:      rep.System,
			Simple:      rep.EX(task.Simple),
			Moderate:    rep.EX(task.Moderate),
			Challenging: rep.EX(task.Challenging),
			All:         rep.EX(""),
		})
	}
	return out
}

func main() {
	table := flag.String("table", "all", "which exhibit to regenerate: 1, 2, extra, edits, improvement, miner, all")
	seed := flag.Uint64("seed", 1, "workload seed")
	modelSeed := flag.Uint64("modelseed", 42, "simulated-model seed")
	rounds := flag.Int("rounds", 4, "improvement rounds")
	jsonPath := flag.String("json", "", "also write results (EX tables + wall-clock) as JSON to this file")
	baseline := flag.String("baseline", "", "EX-parity gate: compare the regenerated EX tables against this committed JSON baseline and exit non-zero on any drift")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	parallel := flag.Int("parallel", 0, "closed-loop load mode: N concurrent workers issuing Generate requests (skips table regeneration)")
	requests := flag.Int("requests", 2000, "total requests to issue in -parallel load mode")
	genCache := flag.Int("gencache", 4096, "generation-cache size in -parallel load mode (0 = disabled)")
	adversarial := flag.Bool("adversarial", false, "load mode: replace the round-robin eval mix with the adversarial overload mix (hot-key skew + cache-busting uniques)")
	hotFrac := flag.Float64("hotfrac", 0.4, "adversarial mix: fraction of requests hammering the hot key set")
	uniqueFrac := flag.Float64("uniquefrac", 0.2, "adversarial mix: fraction of cache-busting unique requests")
	admitRate := flag.Float64("admitrate", 0, "load mode: per-tenant token-bucket refill rate in requests/sec (0 = admission control off)")
	admitBurst := flag.Float64("admitburst", 0, "load mode: per-tenant token-bucket burst capacity (0 = defaults to -admitrate)")
	maxInflight := flag.Int("maxinflight", 0, "load mode: service-wide concurrent-generation cap (0 = unlimited)")
	maxQueue := flag.Int("maxqueue", 64, "load mode: bounded admission-queue depth once -maxinflight is reached")
	reqTimeout := flag.Duration("reqtimeout", 0, "load mode: per-request deadline (0 = none); deadline-aware shedding rejects requests that cannot start in time")
	traceSample := flag.Int("tracesample", 0, "load mode: record per-operator timings for every Nth request (traced requests bypass the generation cache; 0 = off)")
	metricsDump := flag.Bool("metricsdump", true, "load mode: dump the metrics-registry snapshot (Prometheus text exposition) at end of run")
	scale := flag.Int("scale", 0, "load mode: clone every domain into N tenant databases via the stress-scale suite (0 = standard suite); -scale 100 is the 100x hardening run")
	kscale := flag.Int("kscale", 10, "load mode, with -scale: per-database query-log knowledge multiplier (parameter-variant log rounds growing each retrieval index past the ANN partitioning threshold)")
	approvers := flag.Int("approvers", 0, "load mode: N concurrent SME approver loops; approved merges hot-swap engines (and re-partition retrieval indexes) while load workers generate")
	noANN := flag.Bool("noann", false, "load mode: disable ANN-partitioned retrieval (every search scans the full index), for A/B against the default")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "creating cpu profile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "starting cpu profile:", err)
			os.Exit(1)
		}
		// Stopped explicitly before exit; error paths os.Exit and drop the
		// partial profile, which is fine for a diagnostics flag.
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	if *parallel > 0 {
		// Load mode produces no EX tables, so the table-record flags are
		// rejected rather than silently ignored; -cpuprofile (set up above)
		// profiles the load run itself.
		if *baseline != "" {
			fmt.Fprintln(os.Stderr, "-baseline gates the EX tables; it cannot be combined with -parallel load mode")
			os.Exit(1)
		}
		if *jsonPath != "" {
			fmt.Fprintln(os.Stderr, "-json records the EX tables; it cannot be combined with -parallel load mode")
			os.Exit(1)
		}
		cfg := loadConfig{
			scale:         *scale,
			kscale:        *kscale,
			approvers:     *approvers,
			annOff:        *noANN,
			workers:       *parallel,
			totalRequests: *requests,
			genCacheSize:  *genCache,
			adversarial:   *adversarial,
			hotFrac:       *hotFrac,
			uniqueFrac:    *uniqueFrac,
			admitRate:     *admitRate,
			admitBurst:    *admitBurst,
			maxInflight:   *maxInflight,
			maxQueue:      *maxQueue,
			reqTimeout:    *reqTimeout,
			traceSample:   *traceSample,
			metricsDump:   *metricsDump,
		}
		if err := runParallelLoad(*seed, *modelSeed, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "load mode failed:", err)
			os.Exit(1)
		}
		return
	}

	if *scale > 0 || *approvers > 0 || *noANN {
		// Table regeneration always runs the standard suite at production
		// defaults — the stress knobs would silently change the exhibits.
		fmt.Fprintln(os.Stderr, "-scale/-approvers/-noann apply to -parallel load mode only")
		os.Exit(1)
	}

	record := benchRecord{
		Seed:        *seed,
		ModelSeed:   *modelSeed,
		DurationsMS: make(map[string]float64),
		AllocStats:  make(map[string]allocStat),
		Tables:      make(map[string][]jsonRow),
	}

	suiteStart := time.Now()
	suite := workload.NewSuite(*seed)
	record.DurationsMS["suite_generation"] = float64(time.Since(suiteStart).Microseconds()) / 1000
	if err := suite.ValidateGold(); err != nil {
		fmt.Fprintln(os.Stderr, "workload validation failed:", err)
		os.Exit(1)
	}

	run := func(name string, fn func() error) {
		if *table != "all" && *table != name {
			return
		}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "table %s failed: %v\n", name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		record.DurationsMS["table_"+name] = float64(elapsed.Microseconds()) / 1000
		st := allocStat{
			Allocs:  after.Mallocs - before.Mallocs,
			AllocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		}
		record.AllocStats["table_"+name] = st
		fmt.Printf("[table %s: %s, %d allocs, %.1f MB allocated]\n\n",
			name, elapsed.Round(time.Millisecond), st.Allocs, st.AllocMB)
	}

	run("1", func() error {
		reports, err := bench.Table1(suite, *modelSeed)
		if err != nil {
			return err
		}
		record.Tables["table1"] = jsonRows(reports)
		fmt.Println(eval.FormatTable("Table 1 — execution accuracy on mini-BIRD (93/28/11 cases)", reports))
		rank := eval.Rank(reports, "GenEdit")
		total := len(reports)
		fmt.Printf("GenEdit ranks %d of %d compared systems by overall EX (paper: 2nd among open-source).\n\n", rank, total)
		fmt.Println(paperTable1)
		fmt.Println()
		return nil
	})

	run("2", func() error {
		reports, err := bench.RunAblations(suite, *modelSeed, bench.Table2Ablations())
		if err != nil {
			return err
		}
		record.Tables["table2"] = jsonRows(reports)
		fmt.Println(eval.FormatTable("Table 2 — operator ablations", reports))
		fmt.Println(paperTable2)
		fmt.Println()
		return nil
	})

	run("extra", func() error {
		reports, err := bench.RunAblations(suite, *modelSeed, bench.ExtraAblations())
		if err != nil {
			return err
		}
		record.Tables["extra"] = jsonRows(reports)
		fmt.Println(eval.FormatTable("Design-choice ablations (beyond the paper's Table 2)", reports))
		return nil
	})

	run("edits", func() error {
		stats, err := feedback.RunAcceptanceExperiment(suite, *modelSeed, 3)
		if err != nil {
			return err
		}
		fmt.Println("§4.2.3 — edits recommendation acceptance (simulated SMEs over all failed eval cases)")
		fmt.Println(stats)
		return nil
	})

	run("improvement", func() error {
		res, err := feedback.RunImprovementExperiment(suite, *modelSeed, *rounds, 20)
		if err != nil {
			return err
		}
		fmt.Println("Continuous improvement — EX per feedback round, starting from a degraded")
		fmt.Println("knowledge set (no instructions) and merging approved edits each round:")
		fmt.Println(res)
		fmt.Printf("audit history events across databases: %d\n\n", res.FinalHistoryLen)
		return nil
	})

	run("miner", func() error {
		rounds, err := genedit.RunMinerConvergence(*seed, *modelSeed, 3)
		if err != nil {
			return err
		}
		fmt.Println("Self-improving loop — EX over the injected recurring-failure families,")
		fmt.Println("measured at each round's start; the miner then clusters that round's")
		fmt.Println("failures and merges whatever passes the regression gate:")
		fmt.Printf("%-8s %8s %8s %9s %13s\n", "round", "EX", "merged", "rejected", "unactionable")
		rows := make([]jsonRow, 0, len(rounds))
		for _, r := range rounds {
			fmt.Printf("%-8d %7.1f%% %8d %9d %13d\n", r.Round, r.EX, r.Merged, r.Rejected, r.Unactionable)
			// The injected families are all Simple-difficulty cases, so the
			// round's EX doubles as its Simple and overall EX.
			rows = append(rows, jsonRow{System: fmt.Sprintf("round %d", r.Round), Simple: r.EX, All: r.EX})
		}
		fmt.Println()
		record.Tables["miner_convergence"] = rows
		return nil
	})

	if *table == "all" || *table == "counts" {
		fmt.Printf("eval set: %d simple / %d moderate / %d challenging (%d total) across %d databases\n",
			len(suite.CasesByDifficulty(task.Simple)),
			len(suite.CasesByDifficulty(task.Moderate)),
			len(suite.CasesByDifficulty(task.Challenging)),
			len(suite.Cases), workload.Domains())
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(record, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "encoding json results:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "writing json results:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}

	if *baseline != "" {
		if err := checkParity(&record, *baseline); err != nil {
			fmt.Fprintln(os.Stderr, "EX parity gate FAILED:", err)
			os.Exit(1)
		}
		fmt.Printf("EX parity gate passed: tables bit-identical to %s\n", *baseline)
	}
}

// loadConfig bundles the load-mode knobs.
type loadConfig struct {
	workers       int
	totalRequests int
	genCacheSize  int
	adversarial   bool
	hotFrac       float64
	uniqueFrac    float64
	admitRate     float64
	admitBurst    float64
	maxInflight   int
	maxQueue      int
	reqTimeout    time.Duration
	traceSample   int
	metricsDump   bool
	scale         int
	kscale        int
	approvers     int
	annOff        bool
}

// loadCounters aggregates per-request outcomes across workers.
type loadCounters struct {
	ok          atomic.Int64 // err == nil, live answer
	stale       atomic.Int64 // err == nil, degraded onto a stale cached answer
	failedRec   atomic.Int64 // err == nil but the record's SQL failed (pipeline failure, not overload)
	rateLimited atomic.Int64 // 429-class: tenant over budget
	overloaded  atomic.Int64 // 503-class: queue full / deadline unmeetable
	timeout     atomic.Int64 // canceled by the per-request deadline mid-flight
}

// runParallelLoad drives a serving Service with workers concurrent
// closed-loop clients (each issues its next request as soon as the previous
// one completes) and reports throughput, latency percentiles, an outcome
// breakdown (ok/stale/shed/timeout) and the generation-cache and admission
// counters. The default request mix is the full eval set visited
// round-robin, so repeat traffic exercises the cache-hit path exactly the
// way recurring enterprise questions do; -adversarial swaps in the overload
// mix (hot-key skew + cache-busting uniques) and -admitrate/-maxinflight
// enable the admission-control defenses under test.
func runParallelLoad(seed, modelSeed uint64, cfg loadConfig) error {
	if cfg.totalRequests < 1 {
		cfg.totalRequests = 1
	}
	var suite *workload.Suite
	if cfg.scale > 0 {
		sc := workload.ScaleConfig{DBFactor: cfg.scale, KnowledgeFactor: cfg.kscale}
		suite = workload.NewScaledSuite(seed, sc)
		fmt.Printf("stress-scale suite: %d databases, %d cases (DBFactor %d, KnowledgeFactor %d)\n",
			len(suite.Databases), len(suite.Cases), sc.DBFactor, sc.KnowledgeFactor)
	} else {
		suite = workload.NewSuite(seed)
	}
	// A private registry rather than the process default: the dump at the
	// end of the run then contains exactly this run's counters.
	reg := metrics.NewRegistry()
	opts := []genedit.Option{genedit.WithModelSeed(modelSeed), genedit.WithMetrics(reg)}
	if cfg.annOff {
		opts = append(opts, genedit.WithANNRetrieval(genedit.ANNRetrieval{Disable: true}))
	}
	if cfg.traceSample > 0 {
		opts = append(opts, genedit.WithOperatorSampling(cfg.traceSample))
	}
	if cfg.genCacheSize > 0 {
		opts = append(opts, genedit.WithGenerationCache(cfg.genCacheSize))
	}
	admissionOn := cfg.admitRate > 0 || cfg.maxInflight > 0
	if admissionOn {
		opts = append(opts, genedit.WithAdmission(genedit.AdmissionConfig{
			RatePerSec:    cfg.admitRate,
			Burst:         cfg.admitBurst,
			MaxConcurrent: cfg.maxInflight,
			MaxQueue:      cfg.maxQueue,
		}))
	}
	svc := genedit.NewService(suite, opts...)
	defer svc.Close()
	ctx := context.Background()

	fmt.Printf("prewarming %d engines...\n", len(svc.Databases()))
	warmStart := time.Now()
	if err := svc.Prewarm(ctx); err != nil {
		return err
	}
	fmt.Printf("prewarmed in %s\n", time.Since(warmStart).Round(time.Millisecond))

	var mix *workload.OverloadMix
	if cfg.adversarial {
		mix = workload.NewOverloadMix(suite, seed, cfg.hotFrac, cfg.uniqueFrac)
	}
	requestAt := func(i int64) genedit.Request {
		if mix != nil {
			r := mix.Request(int(i))
			return genedit.Request{Database: r.Database, Question: r.Question, Evidence: r.Evidence}
		}
		c := suite.Cases[int(i)%len(suite.Cases)]
		return genedit.Request{Database: c.DB, Question: c.Question, Evidence: c.Evidence}
	}

	approvals := startApprovers(ctx, svc, suite, seed, cfg.approvers)

	var (
		next     atomic.Int64
		counters loadCounters
	)
	latencies := make([][]time.Duration, cfg.workers)
	errs := make([]error, cfg.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lats := make([]time.Duration, 0, cfg.totalRequests/cfg.workers+1)
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.totalRequests) {
					break
				}
				req := requestAt(i)
				reqCtx, cancel := ctx, context.CancelFunc(nil)
				if cfg.reqTimeout > 0 {
					reqCtx, cancel = context.WithTimeout(ctx, cfg.reqTimeout)
				}
				reqStart := time.Now()
				resp, err := svc.Generate(reqCtx, req)
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					lats = append(lats, time.Since(reqStart))
					switch {
					case resp.Stale:
						counters.stale.Add(1)
					case !resp.OK:
						counters.failedRec.Add(1)
					default:
						counters.ok.Add(1)
					}
				case errors.Is(err, genedit.ErrRateLimited):
					counters.rateLimited.Add(1)
				case errors.Is(err, genedit.ErrOverloaded):
					counters.overloaded.Add(1)
				case errors.Is(err, genedit.ErrCanceled):
					counters.timeout.Add(1)
				default:
					errs[w] = err
					latencies[w] = lats
					return
				}
			}
			latencies[w] = lats
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	approvals.stop()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	var all []time.Duration
	for _, lats := range latencies {
		all = append(all, lats...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	mixName := fmt.Sprintf("%d cases round-robin", len(suite.Cases))
	if mix != nil {
		mixName = fmt.Sprintf("adversarial (%.0f%% hot on %s, %.0f%% cache-busting)",
			100*cfg.hotFrac, mix.HotDatabase(), 100*cfg.uniqueFrac)
	}
	fmt.Printf("\nclosed-loop load: %d workers, %d requests, mix %s\n",
		cfg.workers, cfg.totalRequests, mixName)
	fmt.Printf("  wall clock   %s\n", elapsed.Round(time.Millisecond))
	fmt.Printf("  throughput   %.1f gen/sec (completed requests)\n", float64(len(all))/elapsed.Seconds())
	fmt.Printf("  latency      p50 %s   p95 %s   p99 %s   max %s\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))

	shed := counters.rateLimited.Load() + counters.overloaded.Load() + counters.timeout.Load()
	fmt.Printf("  outcomes     %d ok / %d stale-served / %d failed-sql / %d rate-limited (429) / %d overloaded (503) / %d deadline-exceeded\n",
		counters.ok.Load(), counters.stale.Load(), counters.failedRec.Load(),
		counters.rateLimited.Load(), counters.overloaded.Load(), counters.timeout.Load())
	fmt.Printf("  error rate   %.1f%% shed or timed out (%d of %d)\n",
		100*float64(shed)/float64(cfg.totalRequests), shed, cfg.totalRequests)

	st := svc.GenerationCacheStats()
	if svc.GenerationCacheEnabled() {
		served := st.Hits + st.Misses + st.Coalesced
		fmt.Printf("  gen cache    %d hits / %d misses / %d coalesced (%.1f%% served without a pipeline run), %d stale serves, %d/%d entries\n",
			st.Hits, st.Misses, st.Coalesced,
			100*float64(st.Hits+st.Coalesced)/float64(max(served, 1)),
			st.StaleServed, st.Entries, st.Capacity)
	} else {
		fmt.Printf("  gen cache    disabled (every request ran the full pipeline)\n")
	}
	if admissionOn {
		ast := svc.AdmissionStats()
		fmt.Printf("  admission    %d admitted, peak queue %d; shed: %d rate-limited, %d queue-full, %d deadline, %d canceled-in-queue\n",
			ast.Admitted, ast.MaxQueueDepth, ast.RateLimited, ast.ShedQueueFull, ast.ShedDeadline, ast.CanceledInQueue)
		tenants := make([]string, 0, len(ast.Tenants))
		for db := range ast.Tenants {
			tenants = append(tenants, db)
		}
		sort.Strings(tenants)
		for _, db := range tenants {
			ts := ast.Tenants[db]
			if ts.RateLimited == 0 && ts.Admitted == 0 {
				continue
			}
			fmt.Printf("    tenant %-24s %6d admitted %6d rate-limited\n", db, ts.Admitted, ts.RateLimited)
		}
	} else {
		fmt.Printf("  admission    disabled (-admitrate / -maxinflight to enable)\n")
	}

	var agg embed.SearchStats
	for _, rs := range svc.RetrievalStats() {
		for _, st := range []embed.SearchStats{rs.Examples, rs.Instructions} {
			agg.Searches += st.Searches
			agg.ANNSearches += st.ANNSearches
			agg.CandidatesScanned += st.CandidatesScanned
			agg.PartitionsProbed += st.PartitionsProbed
			agg.FullSweeps += st.FullSweeps
		}
	}
	if agg.Searches > 0 {
		fmt.Printf("  retrieval    %d searches (%d ann-partitioned / %d full-scan), %d candidates scanned (avg %.1f/search), %d partitions probed, %d full-sweep fallbacks\n",
			agg.Searches, agg.ANNSearches, agg.Searches-agg.ANNSearches,
			agg.CandidatesScanned, float64(agg.CandidatesScanned)/float64(agg.Searches),
			agg.PartitionsProbed, agg.FullSweeps)
	}
	if cfg.approvers > 0 {
		fmt.Printf("  approvals    %d approver loops: %d feedback sessions, %d merges hot-swapped, %d regression-rejected\n",
			cfg.approvers, approvals.sessions.Load(), approvals.merged.Load(), approvals.rejected.Load())
	}

	if cfg.metricsDump {
		// The same bytes a geneditd /metrics scrape would serve for this
		// traffic — grep-friendly ground truth for regressions in the report
		// numbers above (-metricsdump=false to suppress).
		fmt.Printf("\nmetrics snapshot (Prometheus text exposition 0.0.4):\n")
		if err := reg.Gather().WriteText(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// approverPool tracks the concurrent SME approver loops running alongside
// the load workers (-approvers). Each loop opens a feedback session against
// one database's solver, stages the recommended edits, submits them through
// the regression gate and approves on pass — every approval rebuilds the
// engine's retrieval indexes (re-partitioning the ANN layer) and hot-swaps
// the engine into serving while load workers keep generating against their
// old immutable snapshot. This is the concurrent-approval half of the
// stress-scale run: it proves rebuilds never serve a stale or torn index.
type approverPool struct {
	sessions atomic.Int64
	merged   atomic.Int64
	rejected atomic.Int64
	cancel   context.CancelFunc
	wg       sync.WaitGroup
}

// stop cancels the loops and waits for in-flight sessions to wind down.
func (p *approverPool) stop() {
	if p.cancel != nil {
		p.cancel()
	}
	p.wg.Wait()
}

// startApprovers launches n approver loops round-robining over the suite's
// databases. Each loop runs its first session to completion on the parent
// context before honoring cancellation, so even short load runs submit at
// least one change per approver deterministically.
func startApprovers(ctx context.Context, svc *genedit.Service, suite *workload.Suite, seed uint64, n int) *approverPool {
	p := &approverPool{}
	if n <= 0 {
		return p
	}
	loopCtx, cancel := context.WithCancel(ctx)
	p.cancel = cancel
	dbs := svc.Databases()
	sort.Strings(dbs)
	casesByDB := make(map[string][]*genedit.Case)
	for _, c := range suite.Cases {
		casesByDB[c.DB] = append(casesByDB[c.DB], c)
	}
	for a := 0; a < n; a++ {
		p.wg.Add(1)
		go func(a int) {
			defer p.wg.Done()
			sme := feedback.NewSimulatedSME(seed ^ uint64(0xa11*(a+1)))
			for round := 0; ; round++ {
				sessCtx := ctx
				if round > 0 {
					if loopCtx.Err() != nil {
						return
					}
					sessCtx = loopCtx
				}
				db := dbs[(a+round*n)%len(dbs)]
				cases := casesByDB[db]
				if len(cases) < 3 {
					continue
				}
				// First cases form the golden regression suite; feedback
				// sessions target the rest.
				golden := cases[:2]
				c := cases[2+(a+round)%(len(cases)-2)]
				if err := p.runSession(sessCtx, svc, sme, db, golden, c, a); err != nil {
					if errors.Is(err, genedit.ErrCanceled) {
						return
					}
					// Other errors are tolerated: the load run, not the
					// approver loop, decides pass/fail.
				}
			}
		}(a)
	}
	return p
}

// runSession drives one open → feedback → stage → submit → approve cycle.
func (p *approverPool) runSession(ctx context.Context, svc *genedit.Service, sme *feedback.SimulatedSME, db string, golden []*genedit.Case, c *genedit.Case, a int) error {
	solver, err := svc.Solver(ctx, db, golden)
	if err != nil {
		return err
	}
	sess, err := solver.OpenContext(ctx, c.Question, c.Evidence)
	if err != nil {
		return err
	}
	p.sessions.Add(1)
	rec, err := sess.Feedback(sme.FeedbackFor(c, sess.Record))
	if err != nil {
		return err
	}
	staged, _ := sme.ReviewEdits(c, rec.Edits)
	if len(staged) == 0 {
		return nil
	}
	sess.Stage(staged...)
	res, err := sess.SubmitContext(ctx)
	if err != nil {
		return err
	}
	if !res.Passed {
		p.rejected.Add(1)
		return nil
	}
	if err := solver.Approve(res.Pending, fmt.Sprintf("approver-%d", a)); err != nil {
		return err
	}
	p.merged.Add(1)
	return nil
}

// checkParity diffs the regenerated EX tables against a committed baseline
// record. Every table present in the baseline must have been regenerated
// this run (so -baseline is only meaningful with -table all or a superset)
// and must match row-for-row, bit-for-bit — wall-clock durations are
// deliberately excluded. This is the CI gate that keeps API refactors from
// silently drifting the paper's exhibits.
func checkParity(record *benchRecord, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base benchRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("decoding baseline: %w", err)
	}
	if base.Seed != record.Seed || base.ModelSeed != record.ModelSeed {
		return fmt.Errorf("seed mismatch: run (%d, %d) vs baseline (%d, %d) — rerun with -seed %d -modelseed %d",
			record.Seed, record.ModelSeed, base.Seed, base.ModelSeed, base.Seed, base.ModelSeed)
	}
	names := make([]string, 0, len(base.Tables))
	for name := range base.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var drift []string
	for _, name := range names {
		got, ok := record.Tables[name]
		if !ok {
			drift = append(drift, fmt.Sprintf("table %q not regenerated this run", name))
			continue
		}
		want := base.Tables[name]
		if len(got) != len(want) {
			drift = append(drift, fmt.Sprintf("table %q: %d rows vs baseline %d", name, len(got), len(want)))
			continue
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				drift = append(drift, fmt.Sprintf("table %q row %d: %+v vs baseline %+v", name, i, got[i], want[i]))
			}
		}
	}
	if len(drift) > 0 {
		for _, d := range drift {
			fmt.Fprintln(os.Stderr, "  drift:", d)
		}
		return fmt.Errorf("%d drift(s) vs %s", len(drift), path)
	}
	return nil
}
