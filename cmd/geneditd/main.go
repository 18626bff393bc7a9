// Command geneditd serves the GenEdit pipeline as a JSON-over-HTTP daemon —
// the deployment shape the paper describes: a long-lived service that many
// enterprise sessions query concurrently, one knowledge set per company
// database.
//
//	geneditd -addr :8080
//	geneditd -addr :8080 -prewarm -workers 8 -timeout 10s
//	geneditd -addr :8080 -store /var/lib/genedit   durable knowledge sets
//
// Endpoints:
//
//	POST /v1/generate                   {"database": "...", "question": "...", "evidence": "..."}
//	POST /v1/generate/batch             {"requests": [{...}, ...]}
//	GET  /v1/databases                  list servable databases
//	POST /v1/feedback/open              start an SME feedback session
//	POST /v1/feedback/{id}/regenerate   critique -> staged edits -> regenerate
//	POST /v1/feedback/{id}/submit       regression-test the staged edits
//	POST /v1/feedback/{id}/approve      merge (persist + hot-swap the engine); 409 if a merge since
//	                                    the submit makes the change regress golden cases or
//	                                    leaves one of its edits inapplicable
//	DELETE /v1/feedback/{id}            abandon a session, withdrawing its pending change
//	GET  /v1/knowledge/{db}             knowledge version, counts, change history
//	GET  /v1/miner/{db}                 failure counters + miner stats for one database
//	POST /v1/miner/{db}/mine            run one mining round now (requires -miner)
//	GET  /v1/stats                      serving counters (generation cache, admission, per-db failures, miner)
//	GET  /metrics                       Prometheus text exposition (disable with -metrics=false)
//	GET  /healthz                       liveness probe
//	GET  /readyz                        readiness probe: 503 until prewarm completes and every opened store is healthy
//
// Engines are built lazily per database (coalesced across concurrent
// requests) unless -prewarm front-loads them. -timeout bounds each request;
// a deadline that expires mid-pipeline returns 504 with the cancellation
// error. -trace logs per-operator timings for every request. A JSON body
// over 1 MiB gets 413.
//
// Overload behavior: -admitrate / -admitburst put a per-database token
// bucket in front of generation (shed requests get 429 + Retry-After);
// -maxinflight / -maxqueue bound concurrently executing and queued
// generations (a full queue or an unmeetable deadline sheds with 503 +
// Retry-After). When the generation cache holds an answer for a shed
// request's question from a previous knowledge version, the daemon serves
// it instead, marked "stale": true with its "stale_version". -maxsessions
// (default 1024) caps concurrently open feedback sessions; opens beyond
// the cap get 429. Admission counters are reported on /v1/stats.
//
// -gencache (default 1024, 0 disables) caches the newest completed
// generation of each (database, normalized question, evidence), tagged with
// its knowledge version, with concurrent duplicates coalesced onto one
// pipeline run; responses served this way carry "cached": true. Approved
// feedback merges bump the knowledge version, so a cached record of an
// older version is never served as fresh — no flush. Note -trace
// effectively bypasses the cache: traced requests must run the pipeline.
//
// -miner enables the background failure miner: the failed generations the
// cache holds are clustered, distilled into candidate instructions, and
// pushed through the same regression gate -> approve -> persist -> hot-swap
// path SME edits take. The flag's duration is the mining interval (e.g.
// -miner 5m); mining can also be triggered per database via POST
// /v1/miner/{db}/mine. The miner mines the cache, so -miner with -gencache 0
// is a usage error, and a failure seen only by a traced or sampled request
// is mined once an untraced request caches it (under -trace every request is
// traced, so none is). Without the flag the serving path is byte-identical
// to a miner-less daemon — only the always-on failure counters on /v1/stats
// remain.
//
// -store makes the continuous-improvement loop durable: each database's
// knowledge set is backed by a WAL + snapshot store under <dir>/<database>.
// Approved feedback merges are fsynced before the serving engine hot-swaps,
// and a restarted daemon recovers the exact knowledge version, audit
// history and checkpoints instead of re-running the seed build.
//
// Observability: the daemon reports into the process-global metrics
// registry and exposes it as Prometheus text exposition on GET /metrics
// (opt out with -metrics=false) — request outcomes and latency histograms
// per database, generation-cache and admission counters, WAL append/fsync
// latency, compaction health, and miner progress; see DESIGN.md
// "Observability" for the metric catalog. /v1/stats reads the same
// subsystem counters the /metrics bridges copy, so the two always agree.
// -tracesample N (default 64, 0 disables) feeds per-operator pipeline
// timings (genedit_operator_duration_seconds) from every Nth request; a
// sampled request bypasses the generation cache because operator timings
// require an actual pipeline run. With -prewarm the engine builds run in
// the background: the daemon accepts connections immediately but GET
// /readyz returns 503 until every engine is built, so a load balancer can
// hold traffic without the listener staying dark for the whole build.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"genedit"
	"genedit/internal/generr"
)

// wire types: the JSON surface is decoupled from the Go API so the Go types
// can evolve without breaking clients.

type generateRequest struct {
	Database string `json:"database"`
	Question string `json:"question"`
	Evidence string `json:"evidence,omitempty"`
}

type batchRequest struct {
	Requests []generateRequest `json:"requests"`
}

type failureJSON struct {
	Kind string `json:"kind"` // "syntax" or "exec"
	Msg  string `json:"msg"`
}

type generateResponse struct {
	Database     string       `json:"database"`
	SQL          string       `json:"sql"`
	OK           bool         `json:"ok"`
	Cached       bool         `json:"cached,omitempty"`
	Stale        bool         `json:"stale,omitempty"`
	StaleVersion int          `json:"stale_version,omitempty"`
	Reformulated string       `json:"reformulated,omitempty"`
	Intents      []string     `json:"intents,omitempty"`
	Attempts     int          `json:"attempts"`
	Rows         int          `json:"rows"`
	Failure      *failureJSON `json:"failure,omitempty"`
	Error        string       `json:"error,omitempty"`
	DurationMS   float64      `json:"duration_ms"`
}

type batchResponse struct {
	Responses []generateResponse `json:"responses"`
}

// statsResponse is the GET /v1/stats body: serving-path counters — the
// generation cache's hit/miss/coalesce numbers, per-database failure-type
// counters (always on), and per-database miner counters (when -miner is set
// and a database has been mined at least once).
type statsResponse struct {
	GenerationCacheEnabled bool                            `json:"generation_cache_enabled"`
	GenerationCache        genedit.GenerationCacheStats    `json:"generation_cache"`
	AdmissionEnabled       bool                            `json:"admission_enabled"`
	Admission              genedit.AdmissionStats          `json:"admission"`
	MinerEnabled           bool                            `json:"miner_enabled"`
	Failures               map[string]genedit.FailureStats `json:"failures,omitempty"`
	Miner                  map[string]genedit.MinerStats   `json:"miner,omitempty"`
}

// minerStatusResponse is the GET /v1/miner/{db} body.
type minerStatusResponse struct {
	Database string               `json:"database"`
	Enabled  bool                 `json:"enabled"`
	Failures genedit.FailureStats `json:"failures"`
	Stats    genedit.MinerStats   `json:"stats"`
}

// mineResponse is the POST /v1/miner/{db}/mine body.
type mineResponse struct {
	Database string                   `json:"database"`
	Report   genedit.MinerRoundReport `json:"report"`
}

func toWire(req genedit.Request, resp *genedit.Response) generateResponse {
	out := generateResponse{Database: req.Database}
	if resp == nil {
		return out
	}
	out.SQL = resp.SQL
	out.OK = resp.OK
	out.Cached = resp.Cached
	out.Stale = resp.Stale
	out.StaleVersion = resp.StaleVersion
	out.DurationMS = float64(resp.Duration.Microseconds()) / 1000
	if resp.Record != nil {
		out.Reformulated = resp.Record.Reformulated
		out.Intents = resp.Record.IntentNames
		out.Attempts = len(resp.Record.Attempts)
		if resp.Record.Result != nil {
			out.Rows = len(resp.Record.Result.Rows)
		}
	}
	if resp.Failure != nil {
		out.Failure = &failureJSON{Kind: resp.Failure.Kind, Msg: resp.Failure.Msg}
	}
	if resp.Err != nil {
		out.Error = resp.Err.Error()
	}
	return out
}

// statusFor maps the service error taxonomy onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, genedit.ErrUnknownDatabase):
		return http.StatusNotFound
	case errors.Is(err, genedit.ErrRateLimited):
		return http.StatusTooManyRequests
	case errors.Is(err, genedit.ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, genedit.ErrCanceled):
		// Canceled without a deadline: the client went away.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// maxBodyBytes bounds a request body. The largest legitimate body, a batch
// of questions, is a few kilobytes; without a bound one client could make
// the daemon buffer any amount of data.
const maxBodyBytes = 1 << 20

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a slow client cannot hold a connection open indefinitely.
const readHeaderTimeout = 10 * time.Second

// decodeBody decodes r's JSON body, at most maxBodyBytes of it, into v. On
// failure it answers 413 for an oversized body, else 400, and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return false
	}
	writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
	return false
}

// writeServiceError maps a service error to its HTTP status and, for shed
// requests (429/503), attaches the admission controller's Retry-After hint
// so well-behaved clients back off for exactly as long as the token bucket
// or queue needs.
func writeServiceError(w http.ResponseWriter, err error) {
	if hint, ok := generr.RetryAfterHint(err); ok && hint > 0 {
		// Retry-After is whole seconds; round up so a 50ms hint does not
		// become "retry immediately".
		secs := int64(math.Ceil(hint.Seconds()))
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeError(w, statusFor(err), err.Error())
}

// readiness tracks the daemon's startup state for GET /readyz. The zero
// value reports not-ready; markReady flips it exactly once (prewarm
// completion, or immediately when prewarm is off).
type readiness struct {
	mu    sync.Mutex
	ready bool
	err   error
}

func (r *readiness) markReady(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ready = err == nil
	r.err = err
}

func (r *readiness) status() (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ready, r.err
}

// readyNow returns an already-ready readiness — the state of a daemon that
// builds engines lazily (no -prewarm) and of httptest servers.
func readyNow() *readiness {
	r := &readiness{}
	r.markReady(nil)
	return r
}

// muxConfig carries the daemon knobs newMux needs beyond the service
// itself. The zero value serves unbounded requests with default session
// caps, metrics on, and immediate readiness.
type muxConfig struct {
	// perReq bounds each request's wall-clock time (0 = unbounded).
	perReq time.Duration
	// maxSessions caps concurrently open feedback sessions (<= 0 = default).
	maxSessions int
	// ready gates GET /readyz (nil = ready immediately).
	ready *readiness
	// noMetrics disables the GET /metrics exposition endpoint
	// (-metrics=false); the registry keeps accumulating either way.
	noMetrics bool
}

// newMux wires the service behind the daemon's routes. It is split out from
// main so tests can drive the daemon end-to-end with httptest. suite is the
// tenant registry the feedback hub picks golden regression cases from.
func newMux(svc *genedit.Service, suite *genedit.Benchmark, cfg muxConfig) *http.ServeMux {
	withTimeout := func(ctx context.Context) (context.Context, context.CancelFunc) {
		if cfg.perReq <= 0 {
			return ctx, func() {}
		}
		return context.WithTimeout(ctx, cfg.perReq)
	}
	if cfg.ready == nil {
		cfg.ready = readyNow()
	}

	mux := http.NewServeMux()
	newFeedbackHub(svc, suite, cfg.maxSessions).registerRoutes(mux, withTimeout)

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	// Readiness is distinct from liveness: the process is up (healthz) but
	// traffic should hold until prewarm finished and no opened store has
	// failed terminally. A store with failing compactions stays ready —
	// commits are still durable — but a store that refused writes after a
	// failed WAL rollback must drain: approvals on it are lost.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ready, err := cfg.ready.status()
		switch {
		case err != nil:
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "failed", "error": err.Error()})
			return
		case !ready:
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
			return
		}
		var failed []string
		for db, herr := range svc.StoreHealth() {
			if herr != nil {
				failed = append(failed, db)
			}
		}
		if len(failed) > 0 {
			sort.Strings(failed)
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "store_failed", "databases": failed})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})

	if !cfg.noMetrics {
		mux.Handle("GET /metrics", svc.Metrics().Handler())
	}

	// /v1/stats reads the subsystem counters the /metrics bridges copy at
	// scrape time, so the JSON stats and the Prometheus exposition report
	// the same values and the bridges hold the only metric-name mapping.
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, statsResponse{
			GenerationCacheEnabled: svc.GenerationCacheEnabled(),
			GenerationCache:        svc.GenerationCacheStats(),
			AdmissionEnabled:       svc.AdmissionEnabled(),
			Admission:              svc.AdmissionStats(),
			MinerEnabled:           svc.MinerEnabled(),
			Failures:               svc.FailureStats(),
			Miner:                  svc.MinerStats(),
		})
	})

	knownDB := func(db string) bool {
		for _, d := range svc.Databases() {
			if d == db {
				return true
			}
		}
		return false
	}

	mux.HandleFunc("GET /v1/miner/{db}", func(w http.ResponseWriter, r *http.Request) {
		db := r.PathValue("db")
		if !knownDB(db) {
			writeError(w, http.StatusNotFound, "unknown database "+db)
			return
		}
		writeJSON(w, http.StatusOK, minerStatusResponse{
			Database: db,
			Enabled:  svc.MinerEnabled(),
			Failures: svc.FailureStats()[db],
			Stats:    svc.MinerStats()[db],
		})
	})

	mux.HandleFunc("POST /v1/miner/{db}/mine", func(w http.ResponseWriter, r *http.Request) {
		db := r.PathValue("db")
		if !knownDB(db) {
			writeError(w, http.StatusNotFound, "unknown database "+db)
			return
		}
		if !svc.MinerEnabled() {
			writeError(w, http.StatusConflict, "miner is not enabled; start the daemon with -miner")
			return
		}
		ctx, cancel := withTimeout(r.Context())
		defer cancel()
		rep, err := svc.MineRound(ctx, db)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, mineResponse{Database: db, Report: rep})
	})

	mux.HandleFunc("GET /v1/databases", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{"databases": svc.Databases()})
	})

	mux.HandleFunc("POST /v1/generate", func(w http.ResponseWriter, r *http.Request) {
		var req generateRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if req.Database == "" || req.Question == "" {
			writeError(w, http.StatusBadRequest, "database and question are required")
			return
		}
		ctx, cancel := withTimeout(r.Context())
		defer cancel()
		greq := genedit.Request{Database: req.Database, Question: req.Question, Evidence: req.Evidence}
		resp, err := svc.Generate(ctx, greq)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, toWire(greq, resp))
	})

	mux.HandleFunc("POST /v1/generate/batch", func(w http.ResponseWriter, r *http.Request) {
		var req batchRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if len(req.Requests) == 0 {
			writeError(w, http.StatusBadRequest, "requests must be non-empty")
			return
		}
		greqs := make([]genedit.Request, len(req.Requests))
		for i, gr := range req.Requests {
			greqs[i] = genedit.Request{Database: gr.Database, Question: gr.Question, Evidence: gr.Evidence}
		}
		ctx, cancel := withTimeout(r.Context())
		defer cancel()
		// GenerateBatch's only batch-level error is cancellation; it still
		// returns one response per request, so serve the partial results
		// with the cancellation status rather than discarding them.
		resps, err := svc.GenerateBatch(ctx, greqs)
		out := batchResponse{Responses: make([]generateResponse, len(resps))}
		for i, resp := range resps {
			out.Responses[i] = toWire(greqs[i], resp)
		}
		status := http.StatusOK
		if err != nil {
			status = statusFor(err)
		}
		writeJSON(w, status, out)
	})

	return mux
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Uint64("seed", 1, "workload seed")
	modelSeed := flag.Uint64("modelseed", 42, "simulated-model seed")
	workers := flag.Int("workers", 0, "batch worker pool (0 = GOMAXPROCS)")
	genCache := flag.Int("gencache", 1024, "generation-cache size: the newest completed record of each (database, question) is cached; 0 disables (and rules out -miner)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline (0 = none)")
	prewarm := flag.Bool("prewarm", false, "build all engines at startup (in the background; /readyz turns 200 when done) instead of lazily")
	trace := flag.Bool("trace", false, "log per-operator timings for every request")
	metricsOn := flag.Bool("metrics", true, "expose Prometheus text exposition on GET /metrics")
	traceSample := flag.Int("tracesample", 64, "feed per-operator timing histograms from every Nth request (sampled requests bypass the generation cache; 0 disables)")
	store := flag.String("store", "", "directory for durable per-database knowledge stores (empty = in-memory)")
	minerIvl := flag.Duration("miner", 0, "background failure-mining interval (0 = miner disabled)")
	maxSessions := flag.Int("maxsessions", defaultMaxOpenSessions, "max concurrently open feedback sessions; opens beyond it get 429")
	admitRate := flag.Float64("admitrate", 0, "per-database token-bucket refill rate in requests/sec (0 = no rate limit)")
	admitBurst := flag.Float64("admitburst", 0, "per-database token-bucket burst capacity (0 = max(1, admitrate))")
	maxInflight := flag.Int("maxinflight", 0, "max concurrently executing generations (0 = unbounded)")
	maxQueue := flag.Int("maxqueue", 64, "max requests queued for an execution slot before shedding with 503")
	flag.Parse()
	if *minerIvl > 0 && *genCache <= 0 {
		fmt.Fprintln(os.Stderr, "-miner mines the generation cache's failed records; it needs -gencache > 0")
		os.Exit(2)
	}

	opts := []genedit.Option{genedit.WithModelSeed(*modelSeed)}
	if *admitRate > 0 || *maxInflight > 0 {
		opts = append(opts, genedit.WithAdmission(genedit.AdmissionConfig{
			RatePerSec:    *admitRate,
			Burst:         *admitBurst,
			MaxConcurrent: *maxInflight,
			MaxQueue:      *maxQueue,
		}))
	}
	if *minerIvl > 0 {
		opts = append(opts, genedit.WithMiner())
	}
	if *store != "" {
		opts = append(opts, genedit.WithStorePath(*store))
	}
	if *workers > 0 {
		opts = append(opts, genedit.WithWorkers(*workers))
	}
	if *genCache > 0 {
		opts = append(opts, genedit.WithGenerationCache(*genCache))
	}
	if *traceSample > 0 {
		opts = append(opts, genedit.WithOperatorSampling(*traceSample))
	}
	if *trace {
		opts = append(opts, genedit.WithTrace(func(t *genedit.Trace) {
			log.Printf("trace db=%s total=%s ops=%s", t.Database, t.Total, formatOps(t.Ops))
		}))
	}

	suite := genedit.NewBenchmark(*seed)
	svc := genedit.NewService(suite, opts...)

	// Prewarm runs in the background so the listener comes up immediately;
	// /readyz holds load-balancer traffic until the builds finish. Without
	// -prewarm the daemon is ready at once and builds engines lazily.
	ready := readyNow()
	if *prewarm {
		ready = &readiness{}
		go func() {
			start := time.Now()
			if err := svc.Prewarm(context.Background()); err != nil {
				log.Printf("prewarm failed: %v", err)
				ready.markReady(err)
				return
			}
			log.Printf("prewarmed %d engines in %s", len(svc.Databases()), time.Since(start).Round(time.Millisecond))
			ready.markReady(nil)
		}()
	}

	if svc.AdmissionEnabled() {
		log.Printf("admission control enabled: rate=%g/s burst=%g inflight=%d queue=%d",
			*admitRate, *admitBurst, *maxInflight, *maxQueue)
	}

	server := &http.Server{Addr: *addr, ReadHeaderTimeout: readHeaderTimeout, Handler: newMux(svc, suite, muxConfig{
		perReq:      *timeout,
		maxSessions: *maxSessions,
		ready:       ready,
		noMetrics:   !*metricsOn,
	})}

	minerCtx, stopMiner := context.WithCancel(context.Background())
	defer stopMiner()
	if *minerIvl > 0 {
		go runMinerLoop(minerCtx, svc, *minerIvl)
		log.Printf("failure miner enabled, interval %s", *minerIvl)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		<-stop
		log.Println("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = server.Shutdown(ctx)
		close(drained)
	}()

	log.Printf("geneditd serving %d databases on %s", len(svc.Databases()), *addr)
	err := server.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// ListenAndServe returns as soon as Shutdown begins; wait for the drain
	// so in-flight requests finish before the process exits.
	<-drained
	// Stop background mining before releasing the stores, and release the
	// durable stores only after every in-flight approval has committed.
	stopMiner()
	if err := svc.Close(); err != nil {
		log.Printf("closing stores: %v", err)
	}
}

// runMinerLoop periodically mines every database that has accumulated
// failures. A round's merges go through the regression gate, so a quiet
// system (no recurring failures, or nothing that passes the gate) simply
// reports empty rounds.
func runMinerLoop(ctx context.Context, svc *genedit.Service, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for db, fs := range svc.FailureStats() {
			if fs.Syntax+fs.Exec == 0 {
				continue
			}
			rep, err := svc.MineRound(ctx, db)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				log.Printf("miner %s: %v", db, err)
				continue
			}
			if rep.Submitted > 0 {
				log.Printf("miner %s: scanned=%d clusters=%d submitted=%d merged=%d rejected=%d",
					db, rep.Scanned, rep.Clusters, rep.Submitted, rep.Merged, rep.Rejected)
			}
		}
	}
}

func formatOps(ops []genedit.OpTiming) string {
	s := ""
	for i, op := range ops {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%s", op.Op, op.Duration)
	}
	return s
}
