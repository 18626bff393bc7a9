package genedit

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"genedit/internal/knowledge"
	"genedit/internal/workload"
)

func TestMinerConvergenceRaisesEX(t *testing.T) {
	rounds, err := RunMinerConvergence(1, 42, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 {
		t.Fatalf("got %d rounds", len(rounds))
	}
	first, last := rounds[0], rounds[len(rounds)-1]
	if first.EX != 0 {
		t.Errorf("round 1 EX = %.1f, want 0 (injected families exec-fail before mining)", first.EX)
	}
	if first.Merged == 0 {
		t.Error("round 1 merged no mined candidates")
	}
	if last.EX <= first.EX {
		t.Errorf("EX did not rise: %.1f -> %.1f", first.EX, last.EX)
	}
	if last.EX < 80 {
		t.Errorf("final EX = %.1f, want >= 80 after mined knowledge merges", last.EX)
	}
	// Quiescence: once the exec-failure gaps are covered, the miner must
	// stop merging rather than thrash (a re-served question's newest cached
	// record is its success, so its old failure is no longer mined).
	if last.Merged != 0 {
		t.Errorf("round %d still merged %d candidates after convergence", last.Round, last.Merged)
	}
}

func TestMinerProvenanceAndAudit(t *testing.T) {
	suite, injected := workload.NewMinerSuite(1)
	svc := NewService(suite, WithGenerationCache(64), WithMiner())
	defer svc.Close()
	ctx := context.Background()

	db := injected[0].DB
	for _, c := range injected {
		if c.DB != db {
			continue
		}
		if _, err := svc.Generate(ctx, Request{Database: db, Question: c.Question}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := svc.MineRound(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Merged == 0 {
		t.Fatalf("no merges: %+v", rep)
	}

	engine, err := svc.Engine(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	mined := 0
	for _, ev := range engine.KnowledgeSet().History() {
		if ev.Editor == MinerEditor {
			mined++
			if !strings.HasPrefix(ev.FeedbackID, "miner-") {
				t.Errorf("mined event %d has feedback ID %q", ev.Seq, ev.FeedbackID)
			}
		}
	}
	if mined == 0 {
		t.Error("no history events carry the miner provenance tag")
	}
	stats := svc.MinerStats()[db]
	if stats.Merged != rep.Merged || stats.Rounds != 1 {
		t.Errorf("miner stats = %+v, want merged=%d rounds=1", stats, rep.Merged)
	}

	// A second round over the same (now stale) failures must not re-merge:
	// the WAL-history dedupe plus distill's live-engine probe make mining
	// idempotent.
	rep2, err := svc.MineRound(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Merged != 0 {
		t.Errorf("second round re-merged %d candidates", rep2.Merged)
	}
}

// TestMinerSkipsQuestionsFixedAtAnEarlierVersion: a question whose failure
// a mining round fixed, re-served successfully, is not mined again after a
// later, unrelated merge moves the knowledge version on — its newest record
// is the success, whatever version produced it.
func TestMinerSkipsQuestionsFixedAtAnEarlierVersion(t *testing.T) {
	suite, injected := workload.NewMinerSuite(1)
	svc := NewService(suite, WithGenerationCache(64), WithMiner())
	defer svc.Close()
	ctx := context.Background()

	db := injected[0].DB
	var cases []*Case
	for _, c := range injected {
		if c.DB == db {
			cases = append(cases, c)
		}
	}
	serve := func() (ok int) {
		for _, c := range cases {
			resp, err := svc.Generate(ctx, Request{Database: db, Question: c.Question, Evidence: c.Evidence})
			if err != nil {
				t.Fatal(err)
			}
			if resp.OK {
				ok++
			}
		}
		return ok
	}
	if ok := serve(); ok != 0 {
		t.Fatalf("%d injected questions succeeded before mining, want 0", ok)
	}
	rep, err := svc.MineRound(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Merged != 2 {
		t.Fatalf("round 1 merged %d, want 2: %+v", rep.Merged, rep)
	}
	if ok := serve(); ok != len(cases) {
		t.Fatalf("after mining %d of %d questions succeed, want all", ok, len(cases))
	}

	// An unrelated SME merge moves the version past the one that fixed them.
	solver, err := svc.Solver(ctx, db, suite.Golden(db, 4))
	if err != nil {
		t.Fatal(err)
	}
	c := suite.Golden(db, 1)[0]
	sess, err := solver.OpenContext(ctx, c.Question, c.Evidence)
	if err != nil {
		t.Fatal(err)
	}
	sess.Stage(knowledge.Edit{Op: knowledge.EditInsert, Kind: knowledge.InstructionEntity,
		Instruction: &knowledge.Instruction{ID: "ins-unrelated", Text: "Audit note: keep column aliases short."}})
	res, err := sess.SubmitContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("gate rejected a harmless instruction: %s", res.Detail)
	}
	if err := solver.Approve(res.Pending, "sme"); err != nil {
		t.Fatal(err)
	}

	rep2, err := svc.MineRound(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Scanned != 0 || rep2.Merged != 0 {
		t.Errorf("round 2 after an unrelated merge = %+v, want 0 scanned: every question's newest record succeeded", rep2)
	}
}

// TestMinerRequiresGenerationCache: the miner's only failure signal is the
// generation cache, so a miner without one refuses to run a round.
func TestMinerRequiresGenerationCache(t *testing.T) {
	svc := NewService(NewBenchmark(1), WithMiner())
	defer svc.Close()
	_, err := svc.MineRound(context.Background(), "sports_holdings")
	if err == nil || !strings.Contains(err.Error(), "WithGenerationCache") {
		t.Fatalf("MineRound without a cache: err = %v, want one naming WithGenerationCache", err)
	}
}

func TestMinerDisabledByDefault(t *testing.T) {
	suite := NewBenchmark(1)
	svc := NewService(suite)
	defer svc.Close()
	if _, err := svc.MineRound(context.Background(), "sports_holdings"); err == nil {
		t.Fatal("MineRound succeeded without WithMiner")
	}
	if n := len(svc.MinerStats()); n != 0 {
		t.Fatalf("MinerStats has %d entries on a miner-less service", n)
	}
}

func TestFailureStatsCounters(t *testing.T) {
	suite, injected := workload.NewMinerSuite(1)
	svc := NewService(suite)
	defer svc.Close()
	ctx := context.Background()

	c := injected[0]
	resp, err := svc.Generate(ctx, Request{Database: c.DB, Question: c.Question})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("injected case unexpectedly succeeded")
	}
	stats := svc.FailureStats()[c.DB]
	if stats.Exec == 0 {
		t.Errorf("exec failures not counted: %+v", stats)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := svc.Generate(cctx, Request{Database: c.DB, Question: c.Question}); err == nil {
		t.Fatal("canceled request succeeded")
	}
	if got := svc.FailureStats()[c.DB].Canceled; got == 0 {
		t.Error("cancellation not counted")
	}
}

// TestMinerGateRejectionNeverMerges drives a deliberately regressing
// candidate through the miner's submission path and checks the regression
// gate refuses it: nothing merges, the knowledge version is unchanged, and
// no pending change lingers.
func TestMinerGateRejectionNeverMerges(t *testing.T) {
	suite := NewBenchmark(1)
	svc := NewService(suite)
	defer svc.Close()
	ctx := context.Background()
	db := "sports_holdings"

	var golden []*Case
	for _, c := range suite.Cases {
		if c.DB == db {
			golden = append(golden, c)
		}
	}
	solver, err := svc.Solver(ctx, db, golden)
	if err != nil {
		t.Fatal(err)
	}
	kset := solver.Engine().KnowledgeSet()
	versionBefore := kset.Version()

	// Deleting every term-defining instruction regresses the golden cases
	// that depend on domain jargon (s-our, s-adj, m-ratio, ...).
	var edits []knowledge.Edit
	for _, ins := range kset.Instructions() {
		if len(ins.Terms) > 0 {
			edits = append(edits, knowledge.Edit{
				Op: knowledge.EditDelete, Kind: knowledge.InstructionEntity, ID: ins.ID,
			})
		}
	}
	if len(edits) == 0 {
		t.Fatal("knowledge set has no term-defining instructions to delete")
	}

	res, err := solver.SubmitCandidate(ctx, "miner-regressing", MinerEditor, edits)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatalf("regression gate passed a candidate deleting all term definitions: %s", res.Detail)
	}
	if res.Pending != nil {
		t.Error("rejected candidate produced a pending change")
	}
	if got := solver.Engine().KnowledgeSet().Version(); got != versionBefore {
		t.Errorf("knowledge version moved %d -> %d on a rejected candidate", versionBefore, got)
	}
}

// TestTracedRequestsAreMined: a trace hook observes a request and does not
// choose its path. Under WithTrace, and under WithOperatorSampling(1),
// which traces every request, the injected failures of one database are
// cached like untraced ones, so a mining round scans all six and merges
// two, as it does untraced. The hook runs once per pipeline run: the
// misses, not a repeat of a question already cached.
func TestTracedRequestsAreMined(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trace func(calls *atomic.Int64) Option
	}{
		{"WithTrace", func(calls *atomic.Int64) Option {
			return WithTrace(func(*Trace) { calls.Add(1) })
		}},
		{"WithOperatorSampling", func(*atomic.Int64) Option { return WithOperatorSampling(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			suite, injected := workload.NewMinerSuite(1)
			var calls atomic.Int64
			svc := NewService(suite, WithGenerationCache(64), WithMiner(), tc.trace(&calls))
			defer svc.Close()
			ctx := context.Background()
			db := injected[0].DB
			served := 0
			for round := 0; round < 2; round++ {
				for _, c := range injected {
					if c.DB != db {
						continue
					}
					resp, err := svc.Generate(ctx, Request{Database: db, Question: c.Question})
					if err != nil {
						t.Fatal(err)
					}
					if resp.Cached != (round == 1) {
						t.Errorf("round %d: %q served with Cached = %v", round, c.Question, resp.Cached)
					}
					served++
				}
			}
			if tc.name == "WithTrace" && calls.Load() != int64(served/2) {
				t.Errorf("trace hook called %d times for %d misses and %d hits", calls.Load(), served/2, served/2)
			}
			rep, err := svc.MineRound(ctx, db)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Scanned != 6 || rep.Merged != 2 {
				t.Errorf("traced serving then MineRound: scanned %d, merged %d; want 6 and 2", rep.Scanned, rep.Merged)
			}
		})
	}
}

// TestTraceHookDoesNotChangeRecords pins that the hook only observes: for
// every case of the standard suite, the record a traced request gets is
// deeply equal to the untraced one.
func TestTraceHookDoesNotChangeRecords(t *testing.T) {
	suite := workload.NewSuite(1)
	plain := NewService(suite)
	defer plain.Close()
	traced := NewService(suite, WithTrace(func(*Trace) {}))
	defer traced.Close()
	ctx := context.Background()
	for _, c := range suite.Cases {
		req := Request{Database: c.DB, Question: c.Question, Evidence: c.Evidence}
		want, err := plain.Generate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := traced.Generate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Record, want.Record) {
			t.Errorf("%s: the traced record differs from the untraced one", c.ID)
		}
	}
}
