package genedit

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"genedit/internal/admission"
	"genedit/internal/eval"
	"genedit/internal/feedback"
	"genedit/internal/gencache"
	"genedit/internal/generr"
	"genedit/internal/knowledge"
	"genedit/internal/kstore"
	"genedit/internal/metrics"
	"genedit/internal/pipeline"
	"genedit/internal/simllm"
)

// Typed error taxonomy. Callers branch with errors.Is; the wrapped errors
// carry the specifics (database name, underlying ctx.Err(), parser message).
var (
	// ErrUnknownDatabase reports a Request naming a database the benchmark
	// does not contain.
	ErrUnknownDatabase = errors.New("genedit: unknown database")
	// ErrCanceled reports that the caller's context was canceled or its
	// deadline expired mid-pipeline. Matching errors also satisfy
	// errors.Is(err, context.Canceled) or context.DeadlineExceeded.
	ErrCanceled = generr.ErrCanceled
	// ErrSyntaxFailure / ErrExecFailure classify a *GenerationError (the
	// Response.Failure field): the final SQL failed to parse vs. failed
	// semantic execution.
	ErrSyntaxFailure = pipeline.ErrSyntaxFailure
	ErrExecFailure   = pipeline.ErrExecFailure
	// ErrRateLimited reports that admission control (WithAdmission) shed
	// the request because its tenant exhausted its token-bucket budget.
	// Serving layers map it to 429; generr.RetryAfterHint extracts the
	// Retry-After estimate.
	ErrRateLimited = generr.ErrRateLimited
	// ErrOverloaded reports that admission control shed the request for
	// capacity reasons: the queue is full, the request could not start
	// before its deadline, or the service is shutting down. Maps to 503.
	ErrOverloaded = generr.ErrOverloaded
)

// GenerationError reports a generation whose best candidate SQL still
// failed; see Response.Failure.
type GenerationError = pipeline.GenerationError

// Trace types for the per-request timing hook (WithTrace).
type (
	// Trace is one request's per-operator timing report.
	Trace = pipeline.Trace
	// OpTiming is one operator's wall-clock duration within a request.
	OpTiming = pipeline.OpTiming
	// TraceFunc observes a request's Trace; it must be concurrency-safe.
	TraceFunc = pipeline.TraceFunc
)

// Request is one generation job for Service.Generate / GenerateBatch.
type Request struct {
	// Database selects the tenant: each benchmark database is a separate
	// "company" with its own knowledge set and engine.
	Database string
	// Question is the natural-language question.
	Question string
	// Evidence is optional benchmark-provided external knowledge.
	Evidence string
}

// Response is the outcome of one Request.
type Response struct {
	Database string
	// Record is the full generation trace (context, plan, attempts).
	Record *Record
	// SQL is the final SQL (Record.FinalSQL), kept flat for serving.
	SQL string
	// OK reports whether SQL executed without error.
	OK bool
	// Failure classifies an unsuccessful generation (syntax vs. exec);
	// nil when OK.
	Failure *GenerationError
	// Err is set only by GenerateBatch for per-request failures (unknown
	// database, cancellation, operator error); Generate returns these
	// directly instead.
	Err error
	// Cached reports that Record came from the generation cache (an LRU hit
	// or a coalesced in-flight generation) rather than a pipeline run by
	// this request. Always false when the cache is disabled.
	Cached bool
	// Stale reports graceful degradation: admission control shed this
	// request, but a cached record from a previous knowledge version
	// existed, so the service served that instead of failing with
	// ErrRateLimited/ErrOverloaded. StaleVersion is the knowledge version
	// the record was generated at (the live version is strictly newer, or
	// the same if the entry simply predates the shed). Stale implies
	// Cached.
	Stale        bool
	StaleVersion int
	// Duration is the request's wall-clock time, including any engine
	// build it had to wait for.
	Duration time.Duration
}

// Option configures a Service.
type Option func(*Service)

// WithModelSeed seeds the simulated model's deterministic draws (default 42,
// the seed every committed exhibit uses).
func WithModelSeed(seed uint64) Option { return func(s *Service) { s.modelSeed = seed } }

// WithWorkers bounds GenerateBatch's worker pool. Values below 1 are clamped
// to 1; the default is GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(s *Service) {
		if n < 1 {
			n = 1
		}
		s.workers = n
	}
}

// WithGenerationCache enables the versioned generation cache: a bounded LRU
// of completed Records keyed by (database, knowledge version, normalized
// question, evidence), with singleflight coalescing so concurrent identical
// requests share one pipeline run. Enterprise traffic is highly repetitive —
// the same questions recur across users — so the hit path skips the whole
// compounding-operator pipeline.
//
// Hot-swap safety comes from the key, not from flushing: an approved merge
// installs an engine whose knowledge version is strictly greater, so
// post-swap requests compute new keys and always regenerate; stale entries
// age out of the LRU. Requests carrying a trace hook bypass the cache (a
// per-operator timing trace requires an actual pipeline run), and errors are
// never cached.
//
// size <= 0 disables the cache (the default), reproducing uncached serving
// behavior exactly. Cached Records are shared across responses and must be
// treated as read-only, which serving code already assumes.
func WithGenerationCache(size int) Option {
	return func(s *Service) { s.genCacheSize = size }
}

// AdmissionConfig bounds the serving path (WithAdmission): per-tenant
// token-bucket rate limiting (RatePerSec, Burst) and a bounded,
// deadline-aware request queue (MaxConcurrent, MaxQueue) in front of the
// generation pipeline.
type AdmissionConfig = admission.Config

// WithAdmission puts admission control on the serving path: every Generate
// (and each GenerateBatch item) must pass a per-tenant token bucket and a
// bounded, deadline-aware queue before any pipeline work runs. Shed
// requests fail fast with ErrRateLimited / ErrOverloaded (both carrying a
// Retry-After hint via generr.RetryAfterHint) — or, when the generation
// cache holds an answer for the question from any knowledge version,
// degrade gracefully onto the newest one (Response.Stale): a slightly stale
// answer beats a 429/503 for read traffic.
//
// Deadline awareness: a request whose context deadline cannot be met given
// the current queue depth and the observed service-time average is shed at
// arrival instead of queued to die — the queue only ever holds requests
// that can still make their deadlines.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(s *Service) { s.admCfg = &cfg }
}

// handler serves one generation request; it is the unit the service's
// middleware stack composes. The innermost handler runs the pipeline; the
// stack wraps it as admit → coalesce → generate.
type handler func(ctx context.Context, req Request) (*Response, error)

// WithTrace installs a service-level per-request trace hook: fn receives
// per-operator timings for every Generate / GenerateBatch request. fn must
// be safe for concurrent use.
func WithTrace(fn TraceFunc) Option { return func(s *Service) { s.trace = fn } }

// WithStorePath makes the service durable: each database's knowledge set is
// backed by a crash-safe kstore (WAL + snapshots) under dir/<database>. On
// first use of a database the store is empty, so the service seed-builds
// the knowledge set from the benchmark's pre-processing inputs and persists
// it; on later opens — including after a crash or restart — the set is
// recovered from disk with its full version, audit history and checkpoints,
// and the seed build is skipped. Edits merged through Service.Solver are
// fsynced to the store before the serving engine hot-swaps, so an
// acknowledged approval survives a kill -9.
//
// A store directory assumes a single writing process; run one service per
// store path. Call Close to release the stores.
func WithStorePath(dir string) Option { return func(s *Service) { s.storePath = dir } }

// WithStoreFS routes the knowledge stores' filesystem I/O through fs
// (default the real filesystem). Durability tests pass a kstore.FaultFS to
// inject fsync failures, torn writes and crashes under live serving and
// verify that acknowledged approvals survive.
func WithStoreFS(fs kstore.FS) Option { return func(s *Service) { s.storeFS = fs } }

// Service is the long-lived, multi-tenant serving facade over the GenEdit
// pipeline. It lazily builds one shared Engine per database — the expensive
// pre-processing phase (knowledge-set construction + retrieval-index build)
// runs at most once per database, with duplicate concurrent builds coalesced
// — and serves concurrent Generate and GenerateBatch calls against those
// shared engines.
//
// Concurrency contract: all Service methods are safe for concurrent use.
// Engines are immutable once built (see pipeline.Engine), so requests never
// contend on anything but the executor's internal sharded statement-cache
// locks. The registry is guarded by an RWMutex: steady-state Generate calls
// take only the read lock (and only briefly, to fetch a resolved promise),
// so they never serialize behind engine builds, store opens or hot-swap
// publications, which take the write lock. Approved feedback merges never
// mutate a served engine: the solver's merge hook swaps a freshly built
// engine into the registry atomically (swapEngine), so a request sees
// either the old or the new knowledge version, never a half-rebuilt one.
type Service struct {
	suite        *Benchmark
	modelSeed    uint64
	workers      int
	genCacheSize int
	trace        TraceFunc
	storePath    string
	storeFS      kstore.FS

	// model is the service's one simulated model, built once from the
	// GenEdit profile, the suite's registry and modelSeed. It is immutable
	// and deterministic, so every engine and every solver's recommender
	// share it — and with it its memo of decomposed gold SQL, which a model
	// built per Solver call would start cold each SME cycle.
	model *simllm.Model

	// gencache is nil when the generation cache is disabled.
	gencache *gencache.Cache

	// Admission control (nil when WithAdmission is absent) and the composed
	// request chain.
	admCfg    *AdmissionConfig
	admission *admission.Controller
	serve     handler

	// Metrics (see metrics.go): the registry sink (metrics.Default() unless
	// WithMetrics overrode it), the resolved instrument set, and the
	// operator-timing sampling state (WithOperatorSampling).
	mreg          *metrics.Registry
	smetrics      *serviceMetrics
	opSampleEvery int
	opSampleN     atomic.Uint64

	mu      sync.RWMutex
	engines map[string]*enginePromise
	// stores holds the open kstore per database when WithStorePath is set.
	stores map[string]*kstore.Store
	closed bool

	// Background failure mining (see miner.go). minerOn is set by
	// WithMiner; failures accumulates per-db failure counters (always) and
	// retained failed records (miner only); miners holds the lazily built
	// per-db miner.
	minerOn  bool
	failMu   sync.Mutex
	failures map[string]*dbFailures
	miners   map[string]*minerState
}

// enginePromise coalesces concurrent builds of one database's engine: the
// first requester builds, everyone else waits on ready.
type enginePromise struct {
	ready  chan struct{}
	engine *Engine
	err    error
}

// NewService wraps a benchmark suite in a serving facade. The suite is the
// tenant registry: every database it contains is servable. No engines are
// built until first use; use Prewarm to front-load builds.
func NewService(b *Benchmark, opts ...Option) *Service {
	s := &Service{
		suite:     b,
		modelSeed: 42,
		workers:   runtime.GOMAXPROCS(0),
		engines:   make(map[string]*enginePromise),
		stores:    make(map[string]*kstore.Store),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.model = simllm.New(simllm.GenEditProfile(), s.suite.Registry, s.modelSeed)
	if s.genCacheSize > 0 {
		s.gencache = gencache.New(s.genCacheSize)
	}
	if s.admCfg != nil {
		s.admission = admission.New(*s.admCfg)
	}
	s.initMetrics()
	// The request path is a middleware stack composed once at construction:
	// admit → coalesce → generate.
	s.serve = s.admitMiddleware(s.coalesceMiddleware(s.generateHandler()))
	return s
}

// Databases lists the servable tenants in sorted order.
func (s *Service) Databases() []string {
	names := make([]string, 0, len(s.suite.Databases))
	for name := range s.suite.Databases {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Engine returns the shared engine for one database, building it on first
// use. Concurrent callers for the same database coalesce onto a single
// build; waiters honor ctx cancellation (the build itself runs to completion
// and is cached for the next caller). The returned engine is shared — treat
// it as read-only and use WithKnowledge for staging variants.
func (s *Service) Engine(ctx context.Context, db string) (*Engine, error) {
	if _, ok := s.suite.Databases[db]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDatabase, db)
	}
	// Steady state is a read-locked map lookup of an already-resolved
	// promise; only the first request for a database takes the write lock.
	s.mu.RLock()
	p, ok := s.engines[db]
	s.mu.RUnlock()
	if !ok {
		s.mu.Lock()
		if p, ok = s.engines[db]; !ok {
			p = &enginePromise{ready: make(chan struct{})}
			s.engines[db] = p
			s.mu.Unlock()
			// The cleanup is deferred so even a panicking build (recovered by
			// e.g. net/http handlers) cannot leave waiters blocked forever on
			// an unresolved promise: the promise resolves as failed and is
			// evicted for retry.
			defer func() {
				if p.err != nil || p.engine == nil {
					if p.err == nil {
						p.err = fmt.Errorf("genedit: engine build for %q panicked", db)
					}
					s.mu.Lock()
					delete(s.engines, db)
					s.mu.Unlock()
				}
				close(p.ready)
			}()
			p.engine, p.err = s.build(db)
			return p.engine, p.err
		}
		s.mu.Unlock()
	}
	select {
	case <-p.ready:
		return p.engine, p.err
	case <-ctx.Done():
		return nil, generr.Canceled(ctx.Err())
	}
}

// build runs the pre-processing phase for one database — or, when the
// service is durable and the database's store already holds state, recovers
// the knowledge set from disk instead and skips the seed build.
func (s *Service) build(db string) (*Engine, error) {
	kset, err := s.buildKnowledge(db)
	if err != nil {
		return nil, err
	}
	return pipeline.New(s.model, kset, s.suite.Databases[db], pipeline.DefaultConfig()), nil
}

// buildKnowledge resolves the knowledge set for one database: straight from
// the pre-processing inputs when the service is in-memory, through the
// durable store when WithStorePath is set.
func (s *Service) buildKnowledge(db string) (*knowledge.Set, error) {
	if s.storePath == "" {
		return s.suite.BuildKnowledge(db)
	}
	store, err := s.openStore(db)
	if err != nil {
		return nil, err
	}
	if store.Empty() {
		// First open: seed-build and persist. The seed goes straight to a
		// snapshot (plus an empty WAL), so restarts load one file instead
		// of replaying hundreds of build events.
		kset, err := s.suite.BuildKnowledge(db)
		if err != nil {
			return nil, err
		}
		if err := store.Compact(kset); err != nil {
			return nil, fmt.Errorf("genedit: persisting seed knowledge for %q: %w", db, err)
		}
		return kset, nil
	}
	// Recovery path. The Open-time set is handed out once; if it is gone
	// or stale relative to the log — a previous build attempt appended
	// events after Open and then failed partway (e.g. the seed snapshot
	// errored after its WAL append) — re-read the store from disk rather
	// than serving an out-of-date set.
	if kset := store.Recovered(); kset != nil && kset.LastSeq() == store.LastSeq() {
		return kset, nil
	}
	store, err = s.reopenStore(db)
	if err != nil {
		return nil, err
	}
	if kset := store.Recovered(); kset != nil {
		return kset, nil
	}
	return nil, fmt.Errorf("genedit: knowledge store for %q yielded no recovered set", db)
}

// reopenStore closes and reopens a database's store, forcing recovery from
// disk.
func (s *Service) reopenStore(db string) (*kstore.Store, error) {
	s.mu.Lock()
	if st, ok := s.stores[db]; ok {
		st.Close()
		delete(s.stores, db)
	}
	s.mu.Unlock()
	return s.openStore(db)
}

// openStore opens (once) the kstore for a database.
func (s *Service) openStore(db string) (*kstore.Store, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("genedit: service is closed")
	}
	if st, ok := s.stores[db]; ok {
		return st, nil
	}
	var kopts []kstore.Option
	if s.storeFS != nil {
		kopts = append(kopts, kstore.WithFS(s.storeFS))
	}
	kopts = append(kopts, kstore.WithMetrics(s.mreg, db))
	st, err := kstore.Open(filepath.Join(s.storePath, db), kopts...)
	if err != nil {
		return nil, fmt.Errorf("genedit: opening knowledge store for %q: %w", db, err)
	}
	s.stores[db] = st
	return st, nil
}

// store returns the open store for a database, or nil for in-memory mode.
func (s *Service) store(db string) *kstore.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stores[db]
}

// swapEngine atomically replaces the served engine for a database under the
// registry lock. In-flight requests keep the engine (and its immutable
// knowledge snapshot) they resolved earlier; requests arriving after the
// swap see the new one. The promise is pre-resolved, so waiters never
// block.
func (s *Service) swapEngine(db string, engine *Engine) {
	p := &enginePromise{ready: make(chan struct{}), engine: engine}
	close(p.ready)
	s.mu.Lock()
	s.engines[db] = p
	s.mu.Unlock()
}

// Close releases the service's durable stores (no-op for an in-memory
// service). When admission control is enabled its queue is shed first —
// queued requests fail with ErrOverloaded and new requests are refused —
// so stores close with no generation about to start. In-flight generations
// are unaffected — engines are pure in-memory structures — but subsequent
// approvals will fail to persist.
func (s *Service) Close() error {
	if s.admission != nil {
		s.admission.Close()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	for db, st := range s.stores {
		if err := st.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing store %q: %w", db, err))
		}
	}
	return errors.Join(errs...)
}

// Prewarm builds the engines for the given databases (all servable
// databases when none are named), fanning out across the worker pool. It
// returns the first build error; ctx cancellation aborts waiting.
func (s *Service) Prewarm(ctx context.Context, dbs ...string) error {
	if len(dbs) == 0 {
		dbs = s.Databases()
	}
	errs := make([]error, len(dbs))
	eval.ForEach(ctx, s.workers, len(dbs), func(i int) {
		_, errs[i] = s.Engine(ctx, dbs[i])
	})
	if err := generr.FromContext(ctx); err != nil {
		return err
	}
	return errors.Join(errs...)
}

// Generate serves one request against the shared engine for its database.
// The error taxonomy: ErrUnknownDatabase for an unregistered tenant,
// ErrCanceled (also matching the ctx error) for mid-pipeline cancellation,
// and operator errors verbatim. A request whose final SQL failed is NOT an
// error — the Response carries a typed Failure instead, so serving layers
// distinguish "the model produced bad SQL" from "the service broke".
//
// With WithGenerationCache enabled, a request whose (database, knowledge
// version, normalized question, evidence) key has a completed Record is
// served from the cache, and concurrent identical requests coalesce onto
// one pipeline run; Response.Cached reports which path served the request.
// Traced requests (a WithTrace hook, or one WithOperatorSampling picks)
// bypass the cache — the hook's contract is per-operator timings of an
// actual run.
func (s *Service) Generate(ctx context.Context, req Request) (*Response, error) {
	start := time.Now()
	if err := generr.FromContext(ctx); err != nil {
		if _, ok := s.suite.Databases[req.Database]; ok {
			s.noteCanceled(req.Database)
			s.observeRequest(req.Database, nil, err, 0)
		}
		return nil, err
	}
	// The tenant check runs before the chain so admission never builds
	// state (token buckets, queue slots) for garbage database names — and
	// so metrics never mint label values from them.
	if _, ok := s.suite.Databases[req.Database]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDatabase, req.Database)
	}
	ctx = s.maybeTraceContext(ctx)
	resp, err := s.serve(ctx, req)
	if err != nil {
		s.observeRequest(req.Database, nil, err, time.Since(start))
		return nil, err
	}
	// Failure noting lives here, outside the stack, so it fires exactly once
	// per request — cached, coalesced, or freshly generated. Stale responses
	// are excluded: a shed request replaying an old failure is an overload
	// artifact, not a new signal for the miner.
	if resp.Record != nil && !resp.Record.OK && !resp.Stale {
		s.noteFailure(req.Database, resp.Record)
	}
	resp.Duration = time.Since(start)
	s.observeRequest(req.Database, resp, nil, resp.Duration)
	return resp, nil
}

// generateHandler is the innermost layer of the middleware stack: resolve
// the tenant's shared engine and run the pipeline.
func (s *Service) generateHandler() handler {
	return func(ctx context.Context, req Request) (*Response, error) {
		engine, err := s.Engine(ctx, req.Database)
		if err != nil {
			return nil, err
		}
		rec, err := engine.GenerateContext(ctx, req.Question, req.Evidence)
		if err != nil {
			if errCanceled(err) {
				s.noteCanceled(req.Database)
			}
			return nil, err
		}
		return s.respond(req, rec, false), nil
	}
}

// coalesceMiddleware is the generation-cache layer: serve completed records
// from the versioned LRU and coalesce concurrent identical requests onto
// one pipeline run. A pass-through when the cache is disabled; traced
// requests bypass (their contract is timings of an actual run).
func (s *Service) coalesceMiddleware(next handler) handler {
	if s.gencache == nil {
		return next
	}
	return func(ctx context.Context, req Request) (*Response, error) {
		if pipeline.HasTrace(ctx) {
			return next(ctx, req)
		}
		engine, err := s.Engine(ctx, req.Database)
		if err != nil {
			return nil, err
		}
		key := gencache.RequestKey{
			Database: req.Database,
			Version:  engine.KnowledgeSet().Version(),
			Question: req.Question,
			Evidence: req.Evidence,
		}
		rec, cached, err := s.gencache.DoVersioned(ctx, key, func() (*pipeline.Record, error) {
			resp, err := next(ctx, req)
			if err != nil {
				return nil, err
			}
			return resp.Record, nil
		})
		if err != nil {
			if errCanceled(err) {
				s.noteCanceled(req.Database)
			}
			return nil, err
		}
		return s.respond(req, rec, cached), nil
	}
}

// respond builds a Response around a completed record. Failure noting is
// deliberately not done here — Generate notes once per request after the
// stack returns, so cache hits and leaders count identically.
func (s *Service) respond(req Request, rec *Record, cached bool) *Response {
	return &Response{
		Database: req.Database,
		Record:   rec,
		SQL:      rec.FinalSQL,
		OK:       rec.OK,
		Failure:  rec.Failure(),
		Cached:   cached,
	}
}

// admitMiddleware is the overload-defense layer: per-tenant token buckets
// and the bounded deadline-aware queue. A pass-through when WithAdmission
// is absent. On shed it degrades onto a stale cached answer when one is
// available, else returns the typed overload error.
func (s *Service) admitMiddleware(next handler) handler {
	if s.admission == nil {
		return next
	}
	return func(ctx context.Context, req Request) (*Response, error) {
		release, err := s.admission.Admit(ctx, req.Database)
		if err != nil {
			if errors.Is(err, ErrRateLimited) || errors.Is(err, ErrOverloaded) {
				if resp, ok := s.staleResponse(req); ok {
					return resp, nil
				}
			} else if errCanceled(err) {
				s.noteCanceled(req.Database)
			}
			return nil, err
		}
		defer release()
		return next(ctx, req)
	}
}

// staleResponse looks up the newest cached record for the request's
// question across knowledge versions — the graceful-degradation answer for
// a shed request. ok is false when the cache is off or the question has
// never completed.
func (s *Service) staleResponse(req Request) (*Response, bool) {
	if s.gencache == nil {
		return nil, false
	}
	rec, version, ok := s.gencache.PeekStale(gencache.RequestKey{
		Database: req.Database,
		Question: req.Question,
		Evidence: req.Evidence,
	})
	if !ok {
		return nil, false
	}
	resp := s.respond(req, rec, true)
	resp.Stale = true
	resp.StaleVersion = version
	return resp, true
}

// GenerationCacheStats is the generation cache's counter snapshot: Hits
// (served from the LRU), Misses (ran a pipeline generation), Coalesced
// (joined another request's in-flight generation), plus the LRU's current
// Entries and Capacity.
type GenerationCacheStats = gencache.Stats

// GenerationCacheStats reports the generation cache's hit/miss/coalesce
// counters and fill. All fields are zero when the cache is disabled
// (WithGenerationCache absent or <= 0).
func (s *Service) GenerationCacheStats() GenerationCacheStats {
	if s.gencache == nil {
		return GenerationCacheStats{}
	}
	return s.gencache.Stats()
}

// GenerationCacheEnabled reports whether WithGenerationCache configured a
// cache for this service.
func (s *Service) GenerationCacheEnabled() bool { return s.gencache != nil }

// AdmissionStats is a snapshot of the admission controller's counters:
// Admitted/Queued/InFlight gauges, shed counts by cause (RateLimited,
// ShedQueueFull, ShedDeadline, CanceledInQueue), the peak queue depth, and
// a per-tenant breakdown.
type AdmissionStats = admission.Stats

// AdmissionStats reports the admission controller's counters. The zero
// value when admission control is disabled (WithAdmission absent).
func (s *Service) AdmissionStats() AdmissionStats {
	if s.admission == nil {
		return AdmissionStats{}
	}
	return s.admission.Stats()
}

// AdmissionEnabled reports whether WithAdmission configured admission
// control for this service.
func (s *Service) AdmissionEnabled() bool { return s.admission != nil }

// RetrievalStats is the per-index retrieval counter snapshot of one
// database's engine (see pipeline.RetrievalStats / embed.SearchStats).
type RetrievalStats = pipeline.RetrievalStats

// RetrievalStats snapshots the retrieval counters of every built engine,
// keyed by database. Databases whose engines are still building (or failed
// to build) are absent. Safe to call concurrently with serving; an engine
// hot-swapped by an approval starts from fresh counters.
func (s *Service) RetrievalStats() map[string]RetrievalStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]RetrievalStats, len(s.engines))
	for db, p := range s.engines {
		select {
		case <-p.ready:
			if p.engine != nil {
				out[db] = p.engine.RetrievalStats()
			}
		default:
		}
	}
	return out
}

// GenerateBatch serves many requests concurrently over the service's
// bounded worker pool (WithWorkers). The returned slice always has one
// Response per request, input-ordered; per-request failures are reported in
// Response.Err rather than failing the batch. The batch-level error is
// non-nil only when ctx was canceled, in which case undispatched requests
// carry ErrCanceled in their Err.
func (s *Service) GenerateBatch(ctx context.Context, reqs []Request) ([]*Response, error) {
	out := make([]*Response, len(reqs))
	eval.ForEach(ctx, s.workers, len(reqs), func(i int) {
		resp, err := s.Generate(ctx, reqs[i])
		if err != nil {
			resp = &Response{Database: reqs[i].Database, Err: err}
		}
		out[i] = resp
	})
	for i, resp := range out {
		if resp == nil {
			out[i] = &Response{Database: reqs[i].Database, Err: generr.Canceled(ctx.Err())}
		}
	}
	if err := generr.FromContext(ctx); err != nil {
		return out, err
	}
	return out, nil
}

// Solver builds the continuous-improvement workflow around a database's
// shared engine. The golden cases form the regression suite gating merges.
//
// The solver is wired back into the service: approving a pending change
// first persists the merged knowledge events to the database's store (when
// the service is durable — the fsync happens before anything else observes
// the merge) and then atomically hot-swaps the service's served engine, so
// the next Generate call runs with the new knowledge version while
// in-flight calls finish on their old immutable snapshot. Each call
// returns a fresh Solver (own pending queue); share one solver across the
// sessions that should see each other's pending changes.
func (s *Service) Solver(ctx context.Context, db string, golden []*Case) (*Solver, error) {
	engine, err := s.Engine(ctx, db)
	if err != nil {
		return nil, err
	}
	solver := feedback.NewSolver(engine, feedback.NewRecommender(s.model), golden)
	solver.SetMergeHook(func(next *Engine) error {
		if st := s.store(db); st != nil {
			if err := st.Commit(next.KnowledgeSet()); err != nil {
				return err
			}
		}
		s.swapEngine(db, next)
		return nil
	})
	return solver, nil
}

// KnowledgeInfo reports the live knowledge state of one database for
// inspection surfaces (the daemon's GET /v1/knowledge/{db}).
type KnowledgeInfo struct {
	Database string
	// Version is the knowledge-set version currently being served.
	Version int
	// Entity counts plus directive count for the served set.
	Examples     int
	Instructions int
	Intents      int
	Directives   int
	// HistoryLen is the total audit-log length; History holds the
	// requested tail of it, oldest first.
	HistoryLen int
	History    []ChangeEvent
	// Persisted reports whether a durable store backs this database;
	// PersistedSeq and SnapshotVersion describe it (0 when in-memory).
	Persisted       bool
	PersistedSeq    int
	SnapshotVersion int
	// StoreFailed carries the store's terminal write-failure state (a WAL
	// rollback that could not restore the durable boundary; all further
	// commits are refused) and CompactionErr the most recent
	// automatic-compaction failure (commits stay durable, but the WAL is
	// not being truncated). Both empty when healthy or in-memory.
	StoreFailed   string
	CompactionErr string
}

// Knowledge returns the served knowledge-set status for one database,
// building (or recovering) the engine on first use. lastN bounds the
// returned history tail — the audit log grows without bound, so copying
// all of it on every inspection call is wasted work: n > 0 returns the n
// most recent events, 0 returns none, and a negative n returns the full
// log.
func (s *Service) Knowledge(ctx context.Context, db string, lastN int) (*KnowledgeInfo, error) {
	engine, err := s.Engine(ctx, db)
	if err != nil {
		return nil, err
	}
	kset := engine.KnowledgeSet()
	st := kset.Stats()
	info := &KnowledgeInfo{
		Database:     db,
		Version:      st.Version,
		Examples:     st.Examples,
		Instructions: st.Instructions,
		Intents:      st.Intents,
		Directives:   st.Directives,
		HistoryLen:   kset.LastSeq(),
	}
	switch {
	case lastN < 0:
		info.History = kset.History()
	case lastN > 0:
		info.History = kset.HistorySince(kset.LastSeq() - lastN)
	}
	if store := s.store(db); store != nil {
		info.Persisted = true
		info.PersistedSeq = store.LastSeq()
		info.SnapshotVersion = store.SnapshotVersion()
		if err := store.Failed(); err != nil {
			info.StoreFailed = err.Error()
		}
		if err := store.CompactionErr(); err != nil {
			info.CompactionErr = err.Error()
		}
	}
	return info, nil
}
