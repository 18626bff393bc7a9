package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"genedit"
	"genedit/internal/admission"
	"genedit/internal/eval"
	gmetrics "genedit/internal/metrics"
	"genedit/internal/pipeline"
	"genedit/internal/workload"
)

// The three serving workloads share one op — Service.Generate on the next
// case of the seed's shuffle — and differ in the suite and the service:
//
//	serve_cold    standard suite, library-default service: every request
//	              runs the whole operator pipeline
//	serve_hot     standard suite, daemon-default stack (generation cache
//	              that holds the working set, admission control): no request
//	              of the timed phase reaches the pipeline
//	serve_scaled  stress-scale suite (more tenants, 40x query-log knowledge,
//	              indexes past the ANN threshold), no generation cache
const (
	hotCacheSize = 1024 // geneditd's -gencache default; the 132-case working set fits
	hotMaxQueue  = 64   // geneditd's -maxqueue default
)

// scaledConfig sizes serve_scaled: 32 tenants and 576 cases. KnowledgeFactor
// 40 puts every example index past embed.DefaultANNMinSize.
var scaledConfig = workload.ScaleConfig{DBFactor: 4, KnowledgeFactor: 40}

type serving struct {
	name string
	env  runEnv

	suite   *workload.Suite
	svc     *genedit.Service
	reg     *gmetrics.Registry
	perm    []int
	pinned  []string           // per case: the SQL its warm-pass request returned
	records []*pipeline.Record // per case: the warm-pass record

	suiteGen, prewarm time.Duration
}

func newServing(name string, env runEnv) *serving { return &serving{name: name, env: env} }

func (s *serving) hot() bool { return s.name == "serve_hot" }

func (s *serving) admission() genedit.AdmissionConfig {
	// MaxConcurrent equals the client count and no rate is set, so admission
	// runs on every request and never binds.
	return genedit.AdmissionConfig{MaxConcurrent: s.env.clients, MaxQueue: hotMaxQueue}
}

func (s *serving) setUp() error {
	start := time.Now()
	if s.name == "serve_scaled" {
		s.suite = workload.NewScaledSuite(s.env.seed, scaledConfig)
	} else {
		s.suite = workload.NewSuite(s.env.seed)
	}
	s.suiteGen = time.Since(start)

	// A private registry, as a process holding one service per run needs:
	// the instrumentation on the request path is the same either way.
	s.reg = gmetrics.NewRegistry()
	opts := []genedit.Option{genedit.WithModelSeed(s.env.modelSeed), genedit.WithMetrics(s.reg)}
	if s.hot() {
		opts = append(opts, genedit.WithGenerationCache(hotCacheSize), genedit.WithAdmission(s.admission()))
	}
	s.svc = genedit.NewService(s.suite, opts...)
	ctx := context.Background()
	start = time.Now()
	if err := s.svc.Prewarm(ctx); err != nil {
		return err
	}
	s.prewarm = time.Since(start)

	// Warm pass: every case once, which fills the statement caches (and the
	// generation cache of serve_hot) and pins each case's expected SQL.
	cases := s.suite.Cases
	s.perm = permutation(s.env.seed, len(cases))
	s.pinned = make([]string, len(cases))
	s.records = make([]*pipeline.Record, len(cases))
	var next atomic.Int64
	errs := make([]error, s.env.clients)
	var wg sync.WaitGroup
	for c := 0; c < s.env.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(cases)) {
					return
				}
				ci := requestIndex(s.perm, i)
				resp, err := s.svc.Generate(ctx, s.request(ci))
				if err != nil {
					errs[c] = err
					return
				}
				s.pinned[ci], s.records[ci] = resp.SQL, resp.Record
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *serving) request(ci int) genedit.Request {
	c := s.suite.Cases[ci]
	return genedit.Request{Database: c.DB, Question: c.Question, Evidence: c.Evidence}
}

func (s *serving) expectOps() int {
	perSecond := 4000 // serve_cold on two cores, with headroom
	if s.hot() {
		perSecond = 800_000
	}
	return int(s.env.length.Seconds() * float64(perSecond))
}

func (s *serving) passOps() int { return len(s.perm) }

func (s *serving) tearDown() {
	if s.svc != nil {
		s.svc.Close()
		s.svc = nil
	}
}

// generate is the workload's op.
func (s *serving) generate(ctx context.Context, ci int) outcome {
	resp, err := s.svc.Generate(ctx, s.request(ci))
	if err != nil {
		return outcome{failed: 1}
	}
	var out outcome
	if !resp.OK {
		out.notOK = 1
	}
	if resp.SQL != s.pinned[ci] {
		out.wrong = 1
	}
	if !resp.Cached {
		out.countRun(resp.Record)
	}
	return out
}

func (s *serving) measure(h *harness) error {
	ctx := context.Background()
	h.active(func(_ int, rec *clientRec) {
		for !h.expired() {
			ci := requestIndex(s.perm, h.next())
			start := time.Now()
			rec.done(start, s.generate(ctx, ci))
		}
	})
	return nil
}

func (s *serving) verify(v *verifier) (float64, string) {
	ctx := context.Background()
	runner := eval.NewRunner(s.suite.Databases)
	correct := 0
	digest := sha256.New()
	var evalErr error
	uncachedDiffers := 0
	for ci, c := range s.suite.Cases {
		ok, err := runner.Evaluate(c, s.pinned[ci])
		if err != nil && evalErr == nil {
			evalErr = err
		}
		if ok {
			correct++
		}
		fmt.Fprintf(digest, "%s\x00%s\x00", c.ID, s.pinned[ci])
		if s.hot() {
			// What the cache serves must be what the pipeline generates.
			eng, err := s.svc.Engine(ctx, c.DB)
			if err != nil {
				uncachedDiffers++
				continue
			}
			rec, err := eng.GenerateContext(ctx, c.Question, c.Evidence)
			if err != nil || rec.FinalSQL != s.pinned[ci] {
				uncachedDiffers++
			}
		}
	}
	v.check("gold SQL of every case executes", evalErr == nil, "%v", evalErr)
	if s.hot() {
		v.check("cached SQL equals a fresh pipeline run, case by case", uncachedDiffers == 0, "%d cases differ", uncachedDiffers)
		v.check("no request of the timed phase reached the pipeline", v.phase.runs == 0, "%d of %d ops ran it", v.phase.runs, v.phase.ops)
	}
	v.counts["pipeline_runs"] = v.phase.runs
	return float64(correct) / float64(len(s.suite.Cases)), fmt.Sprintf("%x", digest.Sum(nil))
}

// traced runs, within the run's length: an untraced multi-client phase for
// the counters and the tail latency; a single-client traced phase replaying
// the same request sequence with a span around each layer call; and the
// direct layer calls and statement replay.
func (s *serving) traced(tr *tracer, out *layerValues) (phaseResult, error) {
	out.set("workload.suite_gen_ms", float64(s.suiteGen)/1e6, 1)
	out.set("service.prewarm_s", s.prewarm.Seconds(), 1)
	measureEmbedText(s.suite.Cases, out)
	engines, err := buildTimedEngines(tr, s.suite, s.env.modelSeed, out)
	if err != nil {
		return phaseResult{}, err
	}

	// Untraced phase.
	h := newHarness(s.env.clients, s.env.length*2/5, s.expectOps(), s.passOps())
	cache0, adm0, retr0, rt0 := s.svc.GenerationCacheStats(), s.svc.AdmissionStats(), retrievalTotals(s.svc), readRuntime()
	if err := s.measure(h); err != nil {
		return phaseResult{}, err
	}
	cache1, adm1, retr1, rt1 := s.svc.GenerationCacheStats(), s.svc.AdmissionStats(), retrievalTotals(s.svc), readRuntime()
	phase := h.result()
	p99, beyond := percentile(phase.lat, 0.99)
	out.set("service.latency_p99_ms", p99/1e6, beyond)
	setRuntime(rt0, rt1, out)
	setEmbed(retr0, retr1, out)
	out.set("pipeline.attempts_per_op", share(float64(phase.attempts), float64(phase.runs)), phase.runs)
	out.set("pipeline.first_attempt_ok_share", share(float64(phase.firstOK), float64(phase.runs)), phase.runs)
	if s.hot() {
		hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
		served := hits + misses + cache1.Coalesced - cache0.Coalesced
		out.set("gencache.hit_share", share(float64(hits), float64(served)), int(served))
		shed := (adm1.RateLimited - adm0.RateLimited) + (adm1.ShedQueueFull - adm0.ShedQueueFull) + (adm1.ShedDeadline - adm0.ShedDeadline)
		out.set("admission.shed_share", share(float64(shed), float64(phase.ops)), phase.ops)
	}

	// Traced phase: one client, the same request sequence from its start.
	deadline := time.Now().Add(s.env.length * 2 / 5)
	var cost tracingCost
	ops := 0
	for i := int64(0); time.Now().Before(deadline); i++ {
		ci := requestIndex(s.perm, i)
		tr.nextOp()
		root := tr.begin("op")
		if s.hot() {
			err = s.tracedHit(tr, ci, &cost)
		} else {
			err = s.tracedMiss(tr, ci, i%2 == 0, engines, &cost)
		}
		tr.end(root)
		if err != nil {
			return phaseResult{}, err
		}
		ops++
	}
	totals := totalsByName(tr.spans)
	out.set("trace.overhead_share", 1-share(float64(cost.plain), float64(cost.instrumented)), ops)
	if s.hot() {
		out.perOp("service.hit_path_us", totals["service.generate"].total, ops, 1e3, ops)
		cfg := s.admission()
		if err := measureAdmission(tr, admission.Config{MaxConcurrent: cfg.MaxConcurrent, MaxQueue: cfg.MaxQueue}, sortedDBs(s.suite), out); err != nil {
			return phaseResult{}, err
		}
		if err := measureCacheHit(tr, hotCacheSize, s.suite.Cases, out); err != nil {
			return phaseResult{}, err
		}
	} else {
		// The second of the two calls finds the caches warmer, so the
		// difference is taken within each order and the two medians averaged.
		out.set("service.miss_overhead_us", (median(cost.overhead[0])+median(cost.overhead[1]))/2/1e3, ops)
		setPipelineSpans(totals, ops, out)
		var pass []statement
		for i := range s.suite.Cases {
			ci := requestIndex(s.perm, int64(i))
			pass = append(pass, attemptedStatements(s.suite.Cases[ci].DB, s.records[ci])...)
			pass = append(pass, statement{s.suite.Cases[ci].DB, s.suite.Cases[ci].GoldSQL})
		}
		replayStatements(tr, s.suite, pass, out)
	}
	if err := measureGather(s.reg, out); err != nil {
		return phaseResult{}, err
	}
	return phase, nil
}

// tracingCost accumulates, over the traced ops, the time the same work took
// plain and instrumented, and what Service.Generate added to a direct call of
// its own engine (split by which of the two ran first).
type tracingCost struct {
	plain, instrumented time.Duration
	overhead            [2][]float64
}

// tracedHit is a traced serve_hot op: the cached request under a span, then
// once more plain.
func (s *serving) tracedHit(tr *tracer, ci int, cost *tracingCost) error {
	ctx, req := context.Background(), s.request(ci)
	t0 := time.Now()
	id := tr.begin("service.generate")
	_, err := s.svc.Generate(ctx, req)
	tr.end(id)
	t1 := time.Now()
	if err == nil {
		_, err = s.svc.Generate(ctx, req)
	}
	cost.instrumented += t1.Sub(t0)
	cost.plain += time.Since(t1)
	return err
}

// tracedMiss is a traced serve_cold/serve_scaled op: Service.Generate and the
// service's own engine called directly — in alternating order, so neither
// always finds the caches warmer — then the span-recording engine, which must
// generate what the service did.
func (s *serving) tracedMiss(tr *tracer, ci int, serviceFirst bool, engines map[string]*pipeline.Engine, cost *tracingCost) error {
	ctx, c := context.Background(), s.suite.Cases[ci]
	eng, err := s.svc.Engine(ctx, c.DB)
	if err != nil {
		return err
	}
	var viaID, directID int
	var viaErr, directErr error
	viaService := func() {
		viaID = tr.begin("service.generate")
		_, viaErr = s.svc.Generate(ctx, s.request(ci))
		tr.end(viaID)
	}
	direct := func() {
		start := time.Now()
		directID = tr.begin("engine.generate")
		_, directErr = eng.GenerateContext(ctx, c.Question, c.Evidence)
		tr.end(directID)
		cost.plain += time.Since(start)
	}
	order := 0
	if serviceFirst {
		viaService()
		direct()
	} else {
		order = 1
		direct()
		viaService()
	}
	cost.overhead[order] = append(cost.overhead[order], float64(tr.get(viaID).duration()-tr.get(directID).duration()))

	start := time.Now()
	rec, err := tracedGenerate(tr, engines[c.DB], c.Question, c.Evidence)
	cost.instrumented += time.Since(start)
	if err = errors.Join(viaErr, directErr, err); err != nil {
		return err
	}
	if rec.FinalSQL != s.pinned[ci] {
		return fmt.Errorf("case %s: the traced engine generated different SQL than the service", c.ID)
	}
	return nil
}

// pipelineOps are the operators pipeline.Trace names, in execution order.
var pipelineOps = []string{
	"reformulation", "intent_classification", "example_selection",
	"instruction_selection", "schema_linking", "planning", "generation_loop",
}

var modelCalls = []string{"reformulate", "classify", "link_schema", "plan", "generate_sql", "repair_sql"}

// setPipelineSpans reports the traced engine calls: the whole call, each
// operator, each model call inside them, and the generation loop's self time
// — what it spends outside the model, which is parsing, compiling and
// executing SQL.
func setPipelineSpans(totals map[string]spanTotals, ops int, out *layerValues) {
	out.perOp("pipeline.generate_us", totals["pipeline.generate"].total, ops, 1e3, totals["pipeline.generate"].count)
	for _, op := range pipelineOps {
		t := totals["pipeline.op."+op]
		out.perOp("pipeline.op."+op+"_us", t.total, ops, 1e3, t.count)
	}
	calls := 0
	for _, call := range modelCalls {
		t := totals["simllm."+call]
		out.perOp("simllm."+call+"_us", t.total, ops, 1e3, t.count)
		calls += t.count
	}
	out.set("simllm.calls_per_op", share(float64(calls), float64(ops)), calls)
	loop := totals["pipeline.op.generation_loop"]
	out.perOp("sqlexec.self_us_per_op", loop.self, ops, 1e3, loop.count)
}
