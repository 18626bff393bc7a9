package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"genedit"
	"genedit/internal/eval"
	"genedit/internal/feedback"
	"genedit/internal/kstore"
	gmetrics "genedit/internal/metrics"
	"genedit/internal/pipeline"
	"genedit/internal/task"
	"genedit/internal/workload"
)

// edit_loop is the write side of the layers the serving workloads read: one
// op is one SME cycle on a durable service — Service.Solver, OpenContext,
// Feedback, ReviewEdits/Stage, SubmitContext (the regression gate), Approve
// (WAL fsync, engine rebuild, hot swap) — followed by readsPerCycle Generate
// reads on the same tenant, which miss the generation cache after a merge.
// Every case the fresh service gets wrong receives one cycle; that script is
// replayed over fresh stores for the length of the timed phase. Clients are
// partitioned by database, so a tenant's cycles keep their order.
const (
	readsPerCycle = 16
	goldenPerDB   = 4 // the regression suite of each tenant: its first cases
	editCacheSize = 1024
)

type editLoop struct {
	env   runEnv
	suite *workload.Suite
	root  string // this run's stores, under outDir
	sme   *feedback.SimulatedSME

	golden map[string][]*task.Case
	byDB   map[string][]*task.Case
	cycles [][]*task.Case // per client: the cases that get a cycle, in suite order

	warm      *replica          // the replica the warm replay ran on, kept for verify
	script    scriptCounts      // what one complete replay comes to, pinned by the warm replay
	pinned    map[string]string // per cycled case: the SQL the cycle opened on
	opened    []statement       // what the warm replay's cycles executed
	replays   int               // complete timed replays
	deviating int               // of which differed from the script

	reads []readTally // per client

	suiteGen, prewarm time.Duration
}

// scriptCounts is how a replay's cycles ended.
type scriptCounts struct{ cycles, merged, rejected, nothingStaged int }

func (s *scriptCounts) add(t scriptCounts) {
	s.cycles += t.cycles
	s.merged += t.merged
	s.rejected += t.rejected
	s.nothingStaged += t.nothingStaged
}

// readTally is one client's account of the reads that follow cycles.
type readTally struct {
	lat                    []int32
	reads, hits            int
	postSwap, postSwapMiss int
}

// replica is one durable service over a fresh store directory.
type replica struct {
	svc *genedit.Service
	reg *gmetrics.Registry
	dir string
}

func newEditLoop(env runEnv) *editLoop { return &editLoop{env: env} }

func (e *editLoop) expectOps() int { return int(e.env.length.Seconds() * 400) }

// passOps is the script's length: one cycle per failing case.
func (e *editLoop) passOps() int {
	n := 0
	for _, cases := range e.cycles {
		n += len(cases)
	}
	return n
}

func (e *editLoop) openService(dir string, reg *gmetrics.Registry) *genedit.Service {
	return genedit.NewService(e.suite,
		genedit.WithModelSeed(e.env.modelSeed), genedit.WithMetrics(reg),
		genedit.WithStorePath(dir), genedit.WithGenerationCache(editCacheSize))
}

// newReplica builds a durable service over a fresh store, prewarms it (which
// seed-builds and persists every knowledge set) and serves every case once,
// so each replay starts from the same cache and store state. The responses
// are returned in case order.
func (e *editLoop) newReplica() (*replica, []*genedit.Response, error) {
	dir, err := os.MkdirTemp(e.root, "store-")
	if err != nil {
		return nil, nil, err
	}
	rep := &replica{reg: gmetrics.NewRegistry(), dir: dir}
	rep.svc = e.openService(dir, rep.reg)
	ctx := context.Background()
	start := time.Now()
	if err := rep.svc.Prewarm(ctx); err != nil {
		rep.close()
		return nil, nil, err
	}
	e.prewarm = time.Since(start)
	resps := make([]*genedit.Response, len(e.suite.Cases))
	for i, c := range e.suite.Cases {
		if resps[i], err = rep.svc.Generate(ctx, genedit.Request{Database: c.DB, Question: c.Question, Evidence: c.Evidence}); err != nil {
			rep.close()
			return nil, nil, err
		}
	}
	return rep, resps, nil
}

func (r *replica) close() {
	r.svc.Close()
	os.RemoveAll(r.dir)
}

func (e *editLoop) setUp() error {
	start := time.Now()
	e.suite = workload.NewSuite(e.env.seed)
	e.suiteGen = time.Since(start)
	e.sme = feedback.NewSimulatedSME(e.env.seed ^ 0x5ee)
	if e.root == "" {
		root, err := os.MkdirTemp(outDir, "edit_loop-")
		if err != nil {
			return err
		}
		e.root = root
	}

	e.golden = make(map[string][]*task.Case)
	e.byDB = make(map[string][]*task.Case)
	for _, c := range e.suite.Cases {
		e.byDB[c.DB] = append(e.byDB[c.DB], c)
		if len(e.golden[c.DB]) < goldenPerDB {
			e.golden[c.DB] = append(e.golden[c.DB], c)
		}
	}

	rep, resps, err := e.newReplica()
	if err != nil {
		return err
	}
	e.warm = rep

	// The script: one cycle per case the fresh service gets wrong.
	client := make(map[string]int)
	for i, db := range sortedDBs(e.suite) {
		client[db] = i % e.env.clients
	}
	runner := eval.NewRunner(e.suite.Databases)
	e.cycles = make([][]*task.Case, e.env.clients)
	for i, c := range e.suite.Cases {
		ok, err := runner.Evaluate(c, resps[i].SQL)
		if err != nil {
			return err
		}
		if !ok {
			e.cycles[client[c.DB]] = append(e.cycles[client[c.DB]], c)
		}
	}

	// Warm replay: the whole script once, pinning what each cycle opens on
	// and how the script ends.
	e.pinned = make(map[string]string)
	e.opened = nil
	e.script = scriptCounts{}
	e.replays, e.deviating = 0, 0
	e.reads = make([]readTally, e.env.clients)
	ctx := context.Background()
	for cl, cases := range e.cycles {
		for _, c := range cases {
			res, err := e.cycle(ctx, rep, c, nil)
			if err != nil {
				return err
			}
			e.script.add(res.counts)
			e.pinned[c.ID] = res.opened.FinalSQL
			e.opened = append(e.opened, attemptedStatements(c.DB, res.opened)...)
			if err := e.readAfter(ctx, rep, c.DB, res.counts.merged > 0, &e.reads[cl], nil); err != nil {
				return err
			}
		}
	}
	e.reads = make([]readTally, e.env.clients)
	return nil
}

func (e *editLoop) tearDown() {
	if e.warm != nil {
		e.warm.close()
		e.warm = nil
	}
	if e.root != "" {
		os.RemoveAll(e.root)
		e.root = ""
	}
}

// cycleResult is what one SME cycle came to.
type cycleResult struct {
	counts scriptCounts
	opened *pipeline.Record
	solver *feedback.Solver
}

// cycle is the workload's op. tr, when set, records a span per step.
func (e *editLoop) cycle(ctx context.Context, rep *replica, c *task.Case, tr *tracer) (cycleResult, error) {
	step := func(name string, fn func() error) error {
		if tr == nil {
			return fn()
		}
		defer tr.end(tr.begin(name))
		return fn()
	}
	res := cycleResult{counts: scriptCounts{cycles: 1}}
	var (
		sess *feedback.Session
		rec  *feedback.Recommendation
		sub  *feedback.SubmitResult
	)
	err := step("service.solver", func() (err error) {
		res.solver, err = rep.svc.Solver(ctx, c.DB, e.golden[c.DB])
		return err
	})
	if err != nil {
		return res, err
	}
	if err := step("feedback.open", func() (err error) {
		sess, err = res.solver.OpenContext(ctx, c.Question, c.Evidence)
		return err
	}); err != nil {
		return res, err
	}
	res.opened = sess.Record
	if err := step("feedback.recommend", func() (err error) {
		rec, err = sess.Feedback(e.sme.FeedbackFor(c, sess.Record))
		return err
	}); err != nil {
		return res, err
	}
	staged, _ := e.sme.ReviewEdits(c, rec.Edits)
	if len(staged) == 0 {
		res.counts.nothingStaged = 1
		return res, nil
	}
	sess.Stage(staged...)
	if err := step("feedback.submit", func() (err error) {
		sub, err = sess.SubmitContext(ctx)
		return err
	}); err != nil {
		return res, err
	}
	if !sub.Passed {
		res.counts.rejected = 1
		return res, nil
	}
	if err := step("feedback.approve", func() error {
		return res.solver.Approve(sub.Pending, "benchmark")
	}); err != nil {
		return res, err
	}
	res.counts.merged = 1
	return res, nil
}

// readAfter issues the reads that follow a cycle: the tenant's cases in
// order. After a merge the tenant's knowledge version has moved, so they
// miss the generation cache and regenerate on the swapped-in engine.
func (e *editLoop) readAfter(ctx context.Context, rep *replica, db string, swapped bool, tally *readTally, tr *tracer) error {
	cases := e.byDB[db]
	for i := 0; i < readsPerCycle; i++ {
		c := cases[i%len(cases)]
		id := 0
		if tr != nil {
			id = tr.begin("service.read")
		}
		start := time.Now()
		resp, err := rep.svc.Generate(ctx, genedit.Request{Database: c.DB, Question: c.Question, Evidence: c.Evidence})
		lat := time.Since(start)
		if tr != nil {
			tr.end(id)
		}
		tally.lat = append(tally.lat, int32(lat))
		tally.reads++
		if err != nil {
			return err
		}
		if resp.Cached {
			tally.hits++
		}
		if swapped {
			tally.postSwap++
			if !resp.Cached {
				tally.postSwapMiss++
			}
		}
	}
	return nil
}

func (e *editLoop) measure(h *harness) error {
	ctx := context.Background()
	for !h.expired() {
		rep, _, err := e.newReplica()
		if err != nil {
			return err
		}
		tallies := make([]scriptCounts, h.clients)
		cut := make([]bool, h.clients)
		errs := make([]error, h.clients)
		h.active(func(cl int, rec *clientRec) {
			for _, c := range e.cycles[cl] {
				if h.expired() {
					cut[cl] = true
					return
				}
				start := time.Now()
				res, err := e.cycle(ctx, rep, c, nil)
				var out outcome
				switch {
				case err != nil:
					out.failed, errs[cl] = 1, err
				case res.opened.FinalSQL != e.pinned[c.ID]:
					out.wrong = 1
				}
				if err == nil {
					out.countRun(res.opened)
				}
				rec.done(start, out)
				tallies[cl].add(res.counts)
				if err := e.readAfter(ctx, rep, c.DB, res.counts.merged > 0, &e.reads[cl], nil); err != nil {
					errs[cl] = err
				}
			}
		})
		rep.close()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		if !slices.Contains(cut, true) {
			var total scriptCounts
			for _, t := range tallies {
				total.add(t)
			}
			e.replays++
			if total != e.script {
				e.deviating++
			}
		}
	}
	return nil
}

func (e *editLoop) verify(v *verifier) (float64, string) {
	ctx := context.Background()
	v.counts["script_cycles"] = e.script.cycles
	v.counts["script_merged"] = e.script.merged
	v.counts["script_rejected"] = e.script.rejected
	v.counts["script_nothing_staged"] = e.script.nothingStaged
	v.counts["replays"] = e.replays
	v.check("every complete replay ended like the script (merged, rejected, nothing staged)", e.deviating == 0, "%d of %d replays", e.deviating, e.replays)

	// The continuous-improvement result: EX over every case after the script.
	runner := eval.NewRunner(e.suite.Databases)
	digest := sha256.New()
	fmt.Fprintf(digest, "%+v\x00", e.script)
	correct := 0
	var failure error
	for _, c := range e.suite.Cases {
		resp, err := e.warm.svc.Generate(ctx, genedit.Request{Database: c.DB, Question: c.Question, Evidence: c.Evidence})
		if err != nil {
			failure = err
			break
		}
		ok, err := runner.Evaluate(c, resp.SQL)
		if err != nil {
			failure = err
			break
		}
		if ok {
			correct++
		}
		fmt.Fprintf(digest, "%s\x00%s\x00%s\x00", c.ID, e.pinned[c.ID], resp.SQL)
	}
	v.check("every case generates and evaluates after the script", failure == nil, "%v", failure)

	// Durable = in-memory: a service reopened on the script's store serves
	// the knowledge version and history the live one ended on.
	type state struct{ version, history, persisted int }
	read := func(svc *genedit.Service) (map[string]state, error) {
		out := make(map[string]state)
		for _, db := range sortedDBs(e.suite) {
			info, err := svc.Knowledge(ctx, db, 0)
			if err != nil {
				return nil, err
			}
			out[db] = state{info.Version, info.HistoryLen, info.PersistedSeq}
		}
		return out, nil
	}
	live, err := read(e.warm.svc)
	if err == nil {
		e.warm.svc.Close()
		e.warm.svc = e.openService(e.warm.dir, gmetrics.NewRegistry())
		var recovered map[string]state
		if recovered, err = read(e.warm.svc); err == nil {
			for db, want := range live {
				if recovered[db] != want {
					err = fmt.Errorf("%s: live %+v, recovered %+v", db, want, recovered[db])
					break
				}
			}
		}
	}
	v.check("reopening the store recovers each tenant's knowledge version and history length", err == nil, "%v", err)
	return float64(correct) / float64(len(e.suite.Cases)), fmt.Sprintf("%x", digest.Sum(nil))
}

// mirrorStores are kstores the traced replay commits to directly, one per
// tenant, seeded like the service's own: a Commit on them after each merge
// is the kstore layer's cost, timed from outside the service.
type mirrorStores struct {
	root     string
	stores   map[string]*kstore.Store
	walBytes int64
	commits  int
}

// seed opens one mirror per tenant and persists the tenant's seed knowledge.
func (m *mirrorStores) seed(ctx context.Context, rep *replica, dbs []string) error {
	for _, db := range dbs {
		st, err := kstore.Open(filepath.Join(m.root, db))
		if err != nil {
			return err
		}
		m.stores[db] = st
		eng, err := rep.svc.Engine(ctx, db)
		if err != nil {
			return err
		}
		if err := st.Compact(eng.KnowledgeSet()); err != nil {
			return err
		}
	}
	return nil
}

// commit appends a merge's events to the tenant's mirror under a span and
// notes how far the WAL grew.
func (m *mirrorStores) commit(tr *tracer, db string, merged *feedback.Solver) error {
	wal := filepath.Join(m.root, db, "wal.log")
	before, _ := os.Stat(wal)
	id := tr.begin("kstore.commit")
	err := m.stores[db].Commit(merged.Engine().KnowledgeSet())
	tr.end(id)
	if after, _ := os.Stat(wal); err == nil && before != nil && after != nil && after.Size() > before.Size() {
		m.walBytes += after.Size() - before.Size()
		m.commits++
	}
	return err
}

func (m *mirrorStores) close() {
	for _, st := range m.stores {
		st.Close()
	}
}

// replay runs the script once with one client on a fresh replica and returns
// the replica, for the caller to inspect and close, and the time the cycles
// took. With tr set, every op is a root span over its steps, its mirror
// commit and its reads.
func (e *editLoop) replay(ctx context.Context, tr *tracer, mirrors *mirrorStores) (*replica, time.Duration, error) {
	rep, _, err := e.newReplica()
	if err != nil {
		return nil, 0, err
	}
	if tr != nil {
		if err := mirrors.seed(ctx, rep, sortedDBs(e.suite)); err != nil {
			rep.close()
			return nil, 0, err
		}
	}
	var cycles time.Duration
	var reads readTally
	one := func(c *task.Case) error {
		if tr != nil {
			tr.nextOp()
			defer tr.end(tr.begin("op"))
		}
		start := time.Now()
		res, err := e.cycle(ctx, rep, c, tr)
		cycles += time.Since(start)
		if err != nil {
			return err
		}
		if tr != nil && res.counts.merged > 0 {
			if err := mirrors.commit(tr, c.DB, res.solver); err != nil {
				return err
			}
		}
		return e.readAfter(ctx, rep, c.DB, res.counts.merged > 0, &reads, tr)
	}
	for _, cases := range e.cycles {
		for _, c := range cases {
			if err := one(c); err != nil {
				rep.close()
				return nil, 0, err
			}
		}
	}
	return rep, cycles, nil
}

func (e *editLoop) traced(tr *tracer, out *layerValues) (phaseResult, error) {
	ctx := context.Background()
	out.set("workload.suite_gen_ms", float64(e.suiteGen)/1e6, 1)
	out.set("service.prewarm_s", e.prewarm.Seconds(), 1)
	measureEmbedText(e.suite.Cases, out)
	if _, err := buildTimedEngines(tr, e.suite, e.env.modelSeed, out); err != nil {
		return phaseResult{}, err
	}

	// Untraced phase: the timed phase at two fifths of its length.
	h := newHarness(e.env.clients, e.env.length*2/5, e.expectOps(), e.passOps())
	rt0 := readRuntime()
	if err := e.measure(h); err != nil {
		return phaseResult{}, err
	}
	setRuntime(rt0, readRuntime(), out)
	phase := h.result()
	var reads readTally
	for _, t := range e.reads {
		reads.lat = append(reads.lat, t.lat...)
		reads.reads += t.reads
		reads.hits += t.hits
		reads.postSwap += t.postSwap
		reads.postSwapMiss += t.postSwapMiss
	}
	slices.Sort(reads.lat)
	p50, beyond50 := percentile(reads.lat, 0.50)
	p95, beyond95 := percentile(reads.lat, 0.95)
	out.set("service.read_p50_ms", p50/1e6, beyond50)
	out.set("service.read_p95_ms", p95/1e6, beyond95)
	out.set("gencache.hit_share", share(float64(reads.hits), float64(reads.reads)), reads.reads)
	out.set("gencache.post_swap_miss_share", share(float64(reads.postSwapMiss), float64(reads.postSwap)), reads.postSwap)
	out.set("feedback.merged_share", share(float64(e.script.merged), float64(e.script.cycles)), e.script.cycles)
	out.set("feedback.rejected_share", share(float64(e.script.rejected), float64(e.script.cycles)), e.script.cycles)
	out.set("pipeline.attempts_per_op", share(float64(phase.attempts), float64(phase.runs)), phase.runs)
	out.set("pipeline.first_attempt_ok_share", share(float64(phase.firstOK), float64(phase.runs)), phase.runs)

	// Two single-client replays of the script: one plain, one with a span
	// around every step and a direct kstore commit mirroring each merge.
	rep, plain, err := e.replay(ctx, nil, nil)
	if err != nil {
		return phaseResult{}, err
	}
	rep.close()
	mirrors := &mirrorStores{root: filepath.Join(e.root, "mirror"), stores: make(map[string]*kstore.Store)}
	defer mirrors.close()
	rep, instrumented, err := e.replay(ctx, tr, mirrors)
	if err != nil {
		return phaseResult{}, err
	}
	defer rep.close()
	out.set("trace.overhead_share", 1-share(float64(plain), float64(instrumented)), e.script.cycles)
	out.set("kstore.wal_bytes_per_commit", share(float64(mirrors.walBytes), float64(mirrors.commits)), mirrors.commits)
	if err := measureGather(rep.reg, out); err != nil {
		return phaseResult{}, err
	}

	// Recovery of the post-script stores, and compaction of the mirrors.
	rep.svc.Close()
	dbs := sortedDBs(e.suite)
	tr.nextOp()
	for _, db := range dbs {
		id := tr.begin("kstore.open")
		st, err := kstore.Open(filepath.Join(rep.dir, db))
		tr.end(id)
		if err != nil {
			return phaseResult{}, err
		}
		set := st.Recovered()
		st.Close()
		id = tr.begin("kstore.compact")
		err = mirrors.stores[db].Compact(set)
		tr.end(id)
		if err != nil {
			return phaseResult{}, err
		}
	}
	tr.timed("feedback.improvement", func() {
		_, err = feedback.RunImprovementExperiment(e.suite, e.env.modelSeed, 4, 20)
	})
	if err != nil {
		return phaseResult{}, err
	}

	totals := totalsByName(tr.spans)
	perCycle := func(metric, span string) {
		t := totals[span]
		out.set(metric, share(float64(t.total)/1e6, float64(t.count)), t.count)
	}
	perCycle("feedback.open_ms", "feedback.open")
	perCycle("feedback.recommend_ms", "feedback.recommend")
	perCycle("feedback.submit_ms", "feedback.submit")
	perCycle("feedback.approve_ms", "feedback.approve")
	perCycle("kstore.commit_ms", "kstore.commit")
	perCycle("kstore.open_ms", "kstore.open")
	perCycle("kstore.compact_ms", "kstore.compact")
	perCycle("feedback.improvement_wall_ms", "feedback.improvement")

	var pass []statement
	pass = append(pass, e.opened...)
	for _, db := range dbs {
		for _, c := range e.golden[db] {
			pass = append(pass, statement{db, c.GoldSQL})
		}
	}
	replayStatements(tr, e.suite, pass, out)
	return phase, nil
}
