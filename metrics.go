package genedit

import (
	"context"
	"errors"
	"time"

	"genedit/internal/admission"
	"genedit/internal/embed"
	"genedit/internal/kstore"
	"genedit/internal/metrics"
	"genedit/internal/pipeline"
)

// TenantStats is one tenant's admission record (see AdmissionStats.Tenants).
type TenantStats = admission.TenantStats

// WithMetrics routes the service's instrumentation into reg. Without this
// option every service reports into the process-global metrics.Default()
// registry — the right sink for a long-lived daemon holding one service.
// Tests (and any process holding several services) that assert exact
// counter values should pass their own metrics.NewRegistry so concurrent
// services cannot bridge over each other's series.
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *Service) { s.mreg = reg }
}

// WithOperatorSampling turns on per-operator pipeline timing metrics
// (genedit_operator_duration_seconds): every nth Generate request runs with
// a trace hook that feeds the operator histograms. n <= 0 (the default)
// disables sampling.
//
// A sampled request takes the same path as any other: with the generation
// cache on, only a sampled request that misses runs the pipeline, so the
// histograms time misses; a sampled hit or coalesced request records
// nothing. Requests already traced via WithTrace feed the same histograms
// at no extra cost.
func WithOperatorSampling(n int) Option {
	return func(s *Service) { s.opSampleEvery = n }
}

// Metrics returns the registry this service reports into (never nil).
// geneditd exposes it on GET /metrics; its /v1/stats reads the subsystem
// accessors (GenerationCacheStats, AdmissionStats, FailureStats,
// MinerStats) whose values the registry's scrape bridges copy.
func (s *Service) Metrics() *metrics.Registry { return s.mreg }

// requestOutcomes is the closed outcome vocabulary of
// genedit_requests_total — closed so the label stays low-cardinality and
// dashboards can enumerate it.
var requestOutcomes = []string{
	"ok",           // generation succeeded and the SQL executed
	"failed_sql",   // generation completed but the final SQL failed (syntax or exec)
	"stale",        // shed request degraded onto a cached prior-version answer
	"rate_limited", // shed by the tenant's token bucket (429)
	"overloaded",   // shed for capacity: queue full, deadline, shutdown (503)
	"canceled",     // caller's context died
	"error",        // everything else (engine build failure, operator error)
}

// serviceMetrics is the service's resolved instrument set. Each tenant
// caches its children (tenant.metrics), so the steady-state Generate path is
// one atomic add (and one histogram observe on success).
type serviceMetrics struct {
	requests  *metrics.CounterVec   // genedit_requests_total{db,outcome}
	latency   *metrics.HistogramVec // genedit_request_duration_seconds{db}
	opLatency *metrics.HistogramVec // genedit_operator_duration_seconds{db,operator}
}

// dbMetrics is one database's resolved children, outcome counters
// pre-resolved for the whole closed vocabulary.
type dbMetrics struct {
	outcomes map[string]*metrics.Counter
	latency  *metrics.Histogram
}

// metrics returns the tenant's metric children, resolving them on first
// use.
func (t *tenant) metrics(m *serviceMetrics) *dbMetrics {
	t.obsOnce.Do(func() {
		t.obs = &dbMetrics{
			outcomes: make(map[string]*metrics.Counter, len(requestOutcomes)),
			latency:  m.latency.With(t.name),
		}
		for _, o := range requestOutcomes {
			t.obs.outcomes[o] = m.requests.With(t.name, o)
		}
	})
	return t.obs
}

// initMetrics registers the service's metric catalog and scrape-time
// bridges. Families are registered unconditionally — /metrics advertises
// the full catalog (HELP/TYPE) even for disabled subsystems — while
// bridges are wired only for subsystems that exist, so a disabled cache
// contributes no series.
//
// Bridging (vs. double-instrumenting the hot paths): the generation cache,
// admission controller, failure counters and miner already keep their own
// counters; an OnScrape hook copies their snapshot into the registry at
// Gather time. The bridges are the only place a metric name is paired with
// a stats field: JSON surfaces read the same counters through the accessors
// (GenerationCacheStats, AdmissionStats, FailureStats, MinerStats).
func (s *Service) initMetrics() {
	if s.mreg == nil {
		s.mreg = metrics.Default()
	}
	reg := s.mreg
	m := &serviceMetrics{
		requests: reg.Counter("genedit_requests_total",
			"Generate requests by database and outcome.", "db", "outcome"),
		latency: reg.Histogram("genedit_request_duration_seconds",
			"End-to-end Generate latency for successful requests (ok, stale and failed_sql outcomes), including any engine build waited on.", nil, "db"),
		opLatency: reg.Histogram("genedit_operator_duration_seconds",
			"Per-operator pipeline timings from sampled traced requests (WithOperatorSampling / WithTrace).", nil, "db", "operator"),
	}
	s.smetrics = m

	// Failure classes (always tracked; see FailureStats).
	fails := reg.Counter("genedit_failures_total",
		"Failed generations by database and class: syntax (final SQL unparseable), exec (parsed but failed execution), canceled (abandoned mid-pipeline).", "db", "kind")
	reg.OnScrape(func() {
		for db, fs := range s.FailureStats() {
			fails.With(db, "syntax").Set(fs.Syntax)
			fails.With(db, "exec").Set(fs.Exec)
			fails.With(db, "canceled").Set(fs.Canceled)
		}
	})

	// Generation cache (WithGenerationCache).
	hits := reg.Counter("genedit_gencache_hits_total", "Generation-cache LRU hits.")
	misses := reg.Counter("genedit_gencache_misses_total", "Generation-cache misses (pipeline runs as flight leader).")
	coalesced := reg.Counter("genedit_gencache_coalesced_total", "Requests that joined another request's in-flight generation.")
	staleServes := reg.Counter("genedit_gencache_stale_serves_total", "Shed requests degraded onto a cached prior-version record.")
	entries := reg.Gauge("genedit_gencache_entries", "Generation-cache LRU fill.")
	capacity := reg.Gauge("genedit_gencache_capacity", "Generation-cache LRU bound.")
	if s.gencache != nil {
		reg.OnScrape(func() {
			st := s.gencache.Stats()
			hits.With().Set(st.Hits)
			misses.With().Set(st.Misses)
			coalesced.With().Set(st.Coalesced)
			staleServes.With().Set(st.StaleServed)
			entries.With().Set(float64(st.Entries))
			capacity.With().Set(float64(st.Capacity))
		})
	}

	// Admission control (WithAdmission).
	admitted := reg.Counter("genedit_admission_admitted_total", "Requests granted an execution slot (including after queueing).")
	shed := reg.Counter("genedit_admission_shed_total",
		"Requests shed by admission control, by cause: rate_limited (token bucket), queue_full, deadline (estimated wait overran the request deadline), canceled_in_queue, shutdown.", "kind")
	inFlight := reg.Gauge("genedit_admission_in_flight", "Currently executing admitted requests.")
	queued := reg.Gauge("genedit_admission_queued", "Requests currently waiting for a slot.")
	queuePeak := reg.Gauge("genedit_admission_queue_depth_peak", "High-water mark of the admission queue.")
	avgSvc := reg.Gauge("genedit_admission_avg_service_seconds", "EWMA of admitted-request service time (the deadline-shedding estimate).")
	tenantAdmitted := reg.Counter("genedit_admission_tenant_admitted_total", "Admitted requests per tenant.", "db")
	tenantLimited := reg.Counter("genedit_admission_tenant_rate_limited_total", "Token-bucket sheds per tenant.", "db")
	if s.admission != nil {
		reg.OnScrape(func() {
			st := s.admission.Stats()
			admitted.With().Set(st.Admitted)
			shed.With("rate_limited").Set(st.RateLimited)
			shed.With("queue_full").Set(st.ShedQueueFull)
			shed.With("deadline").Set(st.ShedDeadline)
			shed.With("canceled_in_queue").Set(st.CanceledInQueue)
			shed.With("shutdown").Set(st.ShedShutdown)
			inFlight.With().Set(float64(st.InFlight))
			queued.With().Set(float64(st.Queued))
			queuePeak.With().Set(float64(st.MaxQueueDepth))
			avgSvc.With().Set(st.AvgServiceMS / 1000)
			for tenant, ts := range st.Tenants {
				tenantAdmitted.With(tenant).Set(ts.Admitted)
				tenantLimited.With(tenant).Set(ts.RateLimited)
			}
		})
	}

	// Failure miner (WithMiner).
	minerFams := map[string]*metrics.CounterVec{
		"rounds":       reg.Counter("genedit_miner_rounds_total", "Completed mining rounds per database.", "db"),
		"scanned":      reg.Counter("genedit_miner_scanned_total", "Failed records examined by the miner.", "db"),
		"clusters":     reg.Counter("genedit_miner_clusters_total", "Recurring failure clusters found.", "db"),
		"candidates":   reg.Counter("genedit_miner_candidates_total", "Candidate changes submitted to the regression gate.", "db"),
		"merged":       reg.Counter("genedit_miner_merged_total", "Mined candidates that passed the gate and merged.", "db"),
		"rejected":     reg.Counter("genedit_miner_rejected_total", "Mined candidates the regression gate refused.", "db"),
		"unactionable": reg.Counter("genedit_miner_unactionable_total", "Clusters the miner declined to distill.", "db"),
	}
	if s.minerOn {
		reg.OnScrape(func() {
			for db, ms := range s.MinerStats() {
				minerFams["rounds"].With(db).Set(uint64(ms.Rounds))
				minerFams["scanned"].With(db).Set(uint64(ms.Scanned))
				minerFams["clusters"].With(db).Set(uint64(ms.Clusters))
				minerFams["candidates"].With(db).Set(uint64(ms.Candidates))
				minerFams["merged"].With(db).Set(uint64(ms.Merged))
				minerFams["rejected"].With(db).Set(uint64(ms.Rejected))
				minerFams["unactionable"].With(db).Set(uint64(ms.Unactionable))
			}
		})
	}

	// Knowledge retrieval (always on: every engine keeps per-index search
	// counters — see embed.SearchStats). A selector request scores each
	// distinct vector of its index once, so candidates scanned over searches
	// is the number of distinct texts the index holds.
	retrSearches := reg.Counter("genedit_retrieval_searches_total",
		"Retrieval searches per database and index (examples/instructions): one scoring pass over the index per selector request.", "db", "index")
	retrScanned := reg.Counter("genedit_retrieval_candidates_scanned_total",
		"Distinct stored vectors scored during retrieval: searches x distinct texts in the index.", "db", "index")
	reg.OnScrape(func() {
		for db, rs := range s.RetrievalStats() {
			for index, st := range map[string]embed.SearchStats{
				"examples":     rs.Examples,
				"instructions": rs.Instructions,
			} {
				retrSearches.With(db, index).Set(st.Searches)
				retrScanned.With(db, index).Set(st.CandidatesScanned)
			}
		}
	})

	// Durable-store families: pre-registered whenever the service is durable
	// so the catalog is visible before the first store opens (stores open
	// lazily); per-store children attach in buildKnowledge via
	// kstore.WithMetrics.
	if s.storePath != "" {
		kstore.RegisterMetrics(reg)
	}
}

// observeRequest records one completed Generate on the metrics registry:
// outcome counter always, latency histogram only for requests that returned
// a response (latency of a shed or failed request measures the shedding
// path, not generation). t is always a known tenant — Generate rejects
// unknown names before metrics, so garbage input cannot mint label values.
// It is the one place a request's outcome is counted: a failed_sql outcome
// (never a stale replay of an old failure, which is an overload artifact)
// is FailureStats().Syntax or Exec, and a canceled one is
// FailureStats().Canceled, so the ledger and the outcome counter count the
// same requests.
func (s *Service) observeRequest(t *tenant, resp *Response, err error, dur time.Duration) {
	d := t.metrics(s.smetrics)
	outcome := outcomeOf(resp, err)
	d.outcomes[outcome].Inc()
	switch outcome {
	case "failed_sql":
		if resp.Failure.Kind == "syntax" {
			t.syntax.Add(1)
		} else {
			t.exec.Add(1)
		}
	case "canceled":
		t.canceled.Add(1)
	}
	if err == nil {
		d.latency.Observe(dur.Seconds())
	}
}

// outcomeOf classifies one Generate result into the closed outcome
// vocabulary.
func outcomeOf(resp *Response, err error) string {
	switch {
	case err == nil && resp.Stale:
		return "stale"
	case err == nil && resp.Record != nil && !resp.Record.OK:
		return "failed_sql"
	case err == nil:
		return "ok"
	case errors.Is(err, ErrRateLimited):
		return "rate_limited"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	default:
		return "error"
	}
}

// maybeTraceContext decides a request's trace hook. A service-level
// WithTrace hook is wrapped so the operator histograms ride along for free;
// otherwise every opSampleEvery-th request is sampled into the histograms.
// Either way the hook only observes: the request is served as it would be
// untraced, and the hook runs only if the request runs the pipeline.
func (s *Service) maybeTraceContext(ctx context.Context) context.Context {
	if s.trace != nil {
		user := s.trace
		return pipeline.WithTrace(ctx, func(tr *Trace) {
			s.observeTrace(tr)
			user(tr)
		})
	}
	if s.opSampleEvery > 0 && s.opSampleN.Add(1)%uint64(s.opSampleEvery) == 0 {
		return pipeline.WithTrace(ctx, s.observeTrace)
	}
	return ctx
}

// observeTrace feeds one request's per-operator timings into
// genedit_operator_duration_seconds.
func (s *Service) observeTrace(tr *Trace) {
	for _, op := range tr.Ops {
		s.smetrics.opLatency.With(tr.Database, op.Op).Observe(op.Duration.Seconds())
	}
}

// StoreHealth reports each built database's durable store's terminal
// failure state (nil for healthy), keyed by database. Empty for an
// in-memory service and for databases not yet served. CompactionErr is deliberately not included:
// a store with failing compactions still commits durably, so it should not
// fail a readiness probe — it is surfaced via
// genedit_kstore_compaction_errors_total and KnowledgeInfo instead.
func (s *Service) StoreHealth() map[string]error {
	out := make(map[string]error)
	for db, t := range s.tenants {
		if t.live.Load() != nil && t.store != nil {
			out[db] = t.store.Failed()
		}
	}
	return out
}
