package genedit

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"slices"
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
	"genedit/internal/miner"
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
// holding the newest completed Record of each (database, normalized
// question, evidence), tagged with its knowledge version, with singleflight
// coalescing so concurrent identical requests share one pipeline run.
// Enterprise traffic is highly repetitive — the same questions recur across
// users — so the hit path skips the whole compounding-operator pipeline.
// The cache is also the miner's failure signal (WithMiner needs it), and
// the answer a shed request degrades onto (WithAdmission).
//
// Hot-swap safety comes from the version, not from flushing: an approved
// merge installs an engine whose knowledge version is strictly greater, so
// a post-swap request never hits an older record; it regenerates, and its
// record replaces the older one. Errors are never cached. A traced request
// (WithTrace, WithOperatorSampling) takes the same path: its hook sees
// operator timings only when it leads a miss, and its record is cached and
// mined like any other.
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

// WithTrace installs a service-level per-request trace hook: fn receives
// per-operator timings for every Generate / GenerateBatch request that runs
// the pipeline. With WithGenerationCache that is a request leading a miss;
// a hit or a coalesced request runs no operators and fn is not called. The
// hook only observes: traced requests are served, cached and mined as
// untraced ones are. fn must be safe for concurrent use.
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
// locks. The tenant set is the suite's databases, fixed at NewService, so
// finding a database's record takes no lock, and reading its served engine
// is one atomic load; builds, store opens and the miner's creation take
// only that database's own mutex, and no build runs under it. Each database's
// served engine has one owner, a feedback.Live: every Solver on the
// database (SME hub, miner, any caller) merges through it, one merge at a
// time, each onto the engine the last one served. A merge publishes a
// freshly built engine with one atomic store, so a request sees the old or
// the new knowledge version, never a half-rebuilt one, and never waits on a
// merge.
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

	// Admission control (nil when WithAdmission is absent).
	admCfg    *AdmissionConfig
	admission *admission.Controller

	// Metrics (see metrics.go): the registry sink (metrics.Default() unless
	// WithMetrics overrode it), the resolved instrument set, and the
	// operator-timing sampling state (WithOperatorSampling).
	mreg          *metrics.Registry
	smetrics      *serviceMetrics
	opSampleEvery int
	opSampleN     atomic.Uint64

	// minerOn is set by WithMiner (see miner.go).
	minerOn bool

	// tenants holds one record per suite database. It is written only by
	// NewService, so reads take no lock.
	tenants map[string]*tenant
	closed  atomic.Bool
}

// tenant is everything the service holds for one database.
type tenant struct {
	name string
	// live is the owner of the database's served engine, nil until the
	// first build succeeds.
	live atomic.Pointer[feedback.Live]
	// store backs the database on a durable service. It is set under mu
	// just before live is published and never replaced, so whoever has
	// loaded a non-nil live may read it without mu.
	store *kstore.Store

	// mu guards building and miner. No build runs under it, and a request
	// to a built database never takes it: its failures are counted in the
	// atomics below.
	mu sync.Mutex
	// building is the build in progress, if any; concurrent first requests
	// wait on it instead of building again.
	building *buildPromise
	// miner is the database's miner, built on its first round.
	miner *miner.Miner

	// syntax, exec and canceled are the FailureStats counts: plain atomics
	// of this service, not registry children, so services sharing a
	// registry keep their own counts.
	syntax, exec, canceled atomic.Uint64
	// obs holds the database's metric children, resolved on its first
	// request so /metrics mints no series for an unserved database.
	obsOnce sync.Once
	obs     *dbMetrics
}

// buildPromise is one build attempt of a database's engine: the first
// requester builds, everyone else waits on done.
type buildPromise struct {
	done chan struct{}
	err  error
}

// NewService wraps a benchmark suite in a serving facade. The suite is the
// tenant registry: every database it contains is servable. No engines are
// built until first use; use Prewarm to front-load builds.
func NewService(b *Benchmark, opts ...Option) *Service {
	s := &Service{
		suite:     b,
		modelSeed: 42,
		workers:   runtime.GOMAXPROCS(0),
		tenants:   make(map[string]*tenant, len(b.Databases)),
	}
	for name := range b.Databases {
		s.tenants[name] = &tenant{name: name}
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
	return s
}

// Databases lists the servable tenants in sorted order.
func (s *Service) Databases() []string { return slices.Sorted(maps.Keys(s.tenants)) }

// Engine returns the shared engine for one database, building it on first
// use. Concurrent callers for the same database coalesce onto a single
// build; waiters honor ctx cancellation (the build itself runs to completion
// and is cached for the next caller). The returned engine is shared — treat
// it as read-only and use WithKnowledge for staging variants.
func (s *Service) Engine(ctx context.Context, db string) (*Engine, error) {
	_, live, err := s.liveOf(ctx, db)
	if err != nil {
		return nil, err
	}
	return live.Engine(), nil
}

// liveOf returns a database's record and the owner of its served engine,
// building the engine on first use.
func (s *Service) liveOf(ctx context.Context, db string) (*tenant, *feedback.Live, error) {
	t, ok := s.tenants[db]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownDatabase, db)
	}
	live, err := s.live(ctx, t)
	return t, live, err
}

// live returns the owner of a database's served engine, building the engine
// on first use (see Engine). A failed build leaves nothing behind, so the
// next request builds again.
func (s *Service) live(ctx context.Context, t *tenant) (*feedback.Live, error) {
	if live := t.live.Load(); live != nil {
		return live, nil
	}
	t.mu.Lock()
	if live := t.live.Load(); live != nil {
		t.mu.Unlock()
		return live, nil
	}
	p := t.building
	if p == nil {
		p = &buildPromise{done: make(chan struct{})}
		t.building = p
		t.mu.Unlock()
		return s.build(t, p)
	}
	t.mu.Unlock()
	select {
	case <-p.done:
		if p.err != nil {
			return nil, p.err
		}
		return t.live.Load(), nil
	case <-ctx.Done():
		return nil, generr.Canceled(ctx.Err())
	}
}

// build runs the pre-processing phase for one database — or, when the
// service is durable and the database's store already holds state, recovers
// the knowledge set from disk instead and skips the seed build — and hands
// the engine to its live owner, which on a durable service commits every
// merged set to the database's store before serving it. It resolves p even
// when the build panics (recovered by e.g. net/http handlers), so waiters
// are never left blocked.
func (s *Service) build(t *tenant, p *buildPromise) (live *feedback.Live, err error) {
	var store *kstore.Store
	defer func() {
		if live == nil && err == nil {
			err = fmt.Errorf("genedit: engine build for %q panicked", t.name)
		}
		t.mu.Lock()
		// Close takes every tenant's mu after marking the service closed,
		// so a store opened by a build it raced is closed here or there.
		if err == nil && store != nil && s.closed.Load() {
			err = errClosed
		}
		if err != nil {
			if store != nil {
				store.Close()
			}
			live = nil
		} else {
			t.store = store
			t.live.Store(live)
		}
		t.building = nil
		t.mu.Unlock()
		p.err = err
		close(p.done)
	}()
	var kset *knowledge.Set
	kset, store, err = s.buildKnowledge(t.name)
	if err != nil {
		return nil, err
	}
	var persist func(*knowledge.Set) error
	if store != nil {
		persist = store.Commit
	}
	return feedback.NewLive(pipeline.New(s.model, kset, s.suite.Databases[t.name], pipeline.DefaultConfig()), persist), nil
}

// errClosed refuses a durable build on a closed service.
var errClosed = errors.New("genedit: service is closed")

// buildKnowledge resolves the knowledge set for one database: straight from
// the pre-processing inputs when the service is in-memory, through the
// durable store when WithStorePath is set. The store is opened for this
// attempt only: on failure it is closed again, so the next attempt recovers
// whatever this one left on disk.
func (s *Service) buildKnowledge(db string) (*knowledge.Set, *kstore.Store, error) {
	if s.storePath == "" {
		kset, err := s.suite.BuildKnowledge(db)
		return kset, nil, err
	}
	if s.closed.Load() {
		return nil, nil, errClosed
	}
	kopts := []kstore.Option{kstore.WithMetrics(s.mreg, db)}
	if s.storeFS != nil {
		kopts = append(kopts, kstore.WithFS(s.storeFS))
	}
	store, err := kstore.Open(filepath.Join(s.storePath, db), kopts...)
	if err != nil {
		return nil, nil, fmt.Errorf("genedit: opening knowledge store for %q: %w", db, err)
	}
	kset := store.Recovered()
	if store.Empty() {
		// First open: seed-build and persist. The seed goes straight to a
		// snapshot (plus an empty WAL), so restarts load one file instead
		// of replaying hundreds of build events.
		if kset, err = s.suite.BuildKnowledge(db); err == nil {
			if err = store.Compact(kset); err != nil {
				err = fmt.Errorf("genedit: persisting seed knowledge for %q: %w", db, err)
			}
		}
		if err != nil {
			store.Close()
			return nil, nil, err
		}
	}
	return kset, store, nil
}

// Close releases the service's durable stores (no-op for an in-memory
// service). When admission control is enabled its queue is shed first —
// queued requests fail with ErrOverloaded and new requests are refused —
// so stores close with no generation about to start. In-flight generations
// are unaffected — engines are pure in-memory structures — but subsequent
// approvals will fail to persist, and a database not yet built fails to
// build.
func (s *Service) Close() error {
	if s.admission != nil {
		s.admission.Close()
	}
	if s.closed.Swap(true) {
		return nil
	}
	var errs []error
	for _, db := range s.Databases() {
		t := s.tenants[db]
		t.mu.Lock()
		if t.store != nil {
			if err := t.store.Close(); err != nil {
				errs = append(errs, fmt.Errorf("closing store %q: %w", db, err))
			}
		}
		t.mu.Unlock()
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
// With WithGenerationCache enabled, a request whose (database, normalized
// question, evidence) has a completed Record from the served knowledge
// version is served from the cache, and concurrent identical requests coalesce onto
// one pipeline run; Response.Cached reports which path served the request.
// A traced request (a WithTrace hook, or one WithOperatorSampling picks)
// goes through the cache too: the hook is called when the request leads a
// miss and so runs the pipeline, not when it hits or joins another's run.
func (s *Service) Generate(ctx context.Context, req Request) (*Response, error) {
	start := time.Now()
	t, ok := s.tenants[req.Database]
	if err := generr.FromContext(ctx); err != nil {
		if ok {
			s.observeRequest(t, nil, err, 0)
		}
		return nil, err
	}
	// The tenant check runs before admission so it never builds state
	// (token buckets, queue slots) for garbage database names — and so
	// metrics never mint label values from them.
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDatabase, req.Database)
	}
	resp, err := s.serve(s.maybeTraceContext(ctx), t, req)
	if err != nil {
		s.observeRequest(t, nil, err, time.Since(start))
		return nil, err
	}
	resp.Duration = time.Since(start)
	s.observeRequest(t, resp, nil, resp.Duration)
	return resp, nil
}

// serve is the request path past the tenant check, in order: admission (a
// shed request degrades onto a stale cached answer when one exists, else
// fails with its typed error), one read of the database's served engine,
// and a pipeline run on that engine. The run goes through the generation
// cache, keyed by that engine's knowledge version, unless the cache is off.
// A trace hook on ctx rides along into the run a miss leads.
func (s *Service) serve(ctx context.Context, t *tenant, req Request) (*Response, error) {
	if s.admission != nil {
		release, err := s.admission.Admit(ctx, req.Database)
		if err != nil {
			if errors.Is(err, ErrRateLimited) || errors.Is(err, ErrOverloaded) {
				if resp, ok := s.staleResponse(req); ok {
					return resp, nil
				}
			}
			return nil, err
		}
		defer release()
	}
	live, err := s.live(ctx, t)
	if err != nil {
		return nil, err
	}
	engine := live.Engine()
	if s.gencache == nil {
		rec, err := engine.GenerateContext(ctx, req.Question, req.Evidence)
		if err != nil {
			return nil, err
		}
		return s.respond(req, rec, false), nil
	}
	key := gencache.RequestKey{
		Database: req.Database,
		Version:  engine.KnowledgeSet().Version(),
		Question: req.Question,
		Evidence: req.Evidence,
	}
	rec, cached, err := s.gencache.DoVersioned(ctx, key, func() (*pipeline.Record, error) {
		return engine.GenerateContext(ctx, req.Question, req.Evidence)
	})
	if err != nil {
		return nil, err
	}
	return s.respond(req, rec, cached), nil
}

// respond builds a Response around a completed record.
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
	out := make(map[string]RetrievalStats)
	for db, t := range s.tenants {
		if live := t.live.Load(); live != nil {
			out[db] = live.Engine().RetrievalStats()
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

// Solver builds the continuous-improvement workflow on a database's served
// engine. The golden cases form the regression suite gating merges.
//
// The solver is a stateless view on the database's live owner, shared with
// the service and every other Solver on it: Solver.Engine is the served
// engine, session feedback IDs are unique on the database, and an approval
// — through any Solver on it — merges onto the served engine (re-gated
// first when the version moved since the change's gate), fsyncs the merged
// events to the store (when durable) before anything observes them, then
// publishes the new engine — the next Generate runs on it, in-flight ones
// finish on their old immutable snapshot. Solvers are cheap: build one per
// caller or per session.
func (s *Service) Solver(ctx context.Context, db string, golden []*Case) (*Solver, error) {
	_, live, err := s.liveOf(ctx, db)
	if err != nil {
		return nil, err
	}
	return feedback.NewSolver(live, feedback.NewRecommender(s.model), golden), nil
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
	t, live, err := s.liveOf(ctx, db)
	if err != nil {
		return nil, err
	}
	kset := live.Engine().KnowledgeSet()
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
	if store := t.store; store != nil {
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
