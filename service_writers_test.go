package genedit_test

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"genedit"
	"genedit/internal/feedback"
	"genedit/internal/knowledge"
	"genedit/internal/workload"
)

// writerCount is the number of SME solvers writing next to the miner.
const writerCount = 3

// TestMinerAndSMEMergesShareOneLine: several Service.Solvers on one
// database and a mining round merge distinct edits, one after another and
// all at once, in memory and on a durable store, with the generation cache
// on. The SME solvers are built — and their changes gated — before the
// mining round, so each approval lands on an engine newer than the one its
// gate replayed. Every approval must succeed; the served set must hold
// every approved edit; the version must rise with every merge; no read
// after a merge may be served from a cache entry made before it; and a
// reopened store must recover the set the service served.
func TestMinerAndSMEMergesShareOneLine(t *testing.T) {
	for _, durable := range []bool{false, true} {
		for _, concurrent := range []bool{false, true} {
			name := fmt.Sprintf("durable=%v/concurrent=%v", durable, concurrent)
			t.Run(name, func(t *testing.T) { minerAndSMEWriters(t, durable, concurrent) })
		}
	}
}

// servedRead is one Generate on the question set: the record it returned
// and the served knowledge versions read just before and just after it.
type servedRead struct {
	rec          *genedit.Record
	before, then int
}

func minerAndSMEWriters(t *testing.T, durable, concurrent bool) {
	ctx := context.Background()
	suite, injected := workload.NewMinerSuite(1)
	db := injected[0].DB
	opts := []genedit.Option{genedit.WithModelSeed(42), genedit.WithGenerationCache(256), genedit.WithMiner()}
	dir := t.TempDir()
	if durable {
		opts = append(opts, genedit.WithStorePath(dir))
	}
	svc := genedit.NewService(suite, opts...)
	defer svc.Close()

	version := func() int {
		e, err := svc.Engine(ctx, db)
		if err != nil {
			t.Error(err)
			return 0
		}
		return e.KnowledgeSet().Version()
	}
	v0 := version()
	hist0 := mustKnowledge(t, svc, db).HistoryLen

	// The miner's input: the database's recurring exec failures.
	for _, c := range injected {
		if c.DB != db {
			continue
		}
		if _, err := svc.Generate(ctx, genedit.Request{Database: db, Question: c.Question, Evidence: c.Evidence}); err != nil {
			t.Fatal(err)
		}
	}

	// The SME writers: each solver stages one instruction of its own and
	// passes the regression gate on the pre-mining engine.
	cases := suite.Golden(db, writerCount)
	solvers := make([]*genedit.Solver, writerCount)
	pending := make([]*feedback.PendingChange, writerCount)
	for k := range solvers {
		s, err := svc.Solver(ctx, db, suite.Golden(db, 4))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := s.OpenContext(ctx, cases[k].Question, cases[k].Evidence)
		if err != nil {
			t.Fatal(err)
		}
		sess.Stage(knowledge.Edit{Op: knowledge.EditInsert, Kind: knowledge.InstructionEntity,
			Instruction: &knowledge.Instruction{ID: writerInstruction(k), Text: fmt.Sprintf("Writer %d audit note: keep column aliases short.", k)}})
		res, err := sess.SubmitContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed {
			t.Fatalf("writer %d: gate rejected a harmless instruction: %s", k, res.Detail)
		}
		solvers[k], pending[k] = s, res.Pending
	}

	var (
		readMu sync.Mutex
		reads  []servedRead
	)
	readAll := func() {
		for _, c := range cases {
			before := version()
			resp, err := svc.Generate(ctx, genedit.Request{Database: db, Question: c.Question, Evidence: c.Evidence})
			if err != nil {
				t.Error(err)
				return
			}
			readMu.Lock()
			reads = append(reads, servedRead{rec: resp.Record, before: before, then: version()})
			readMu.Unlock()
		}
	}
	approve := func(k int) {
		if err := solvers[k].Approve(pending[k], writerEditor(k)); err != nil {
			t.Errorf("writer %d approve: %v", k, err)
		}
	}
	var mined genedit.MinerRoundReport
	mine := func() {
		var err error
		if mined, err = svc.MineRound(ctx, db); err != nil {
			t.Errorf("mine: %v", err)
		}
	}

	if !concurrent {
		steps := []func(){func() { approve(0) }, mine}
		for k := 1; k < writerCount; k++ {
			steps = append(steps, func() { approve(k) })
		}
		for i, step := range steps {
			readAll()
			readAll() // cached
			before := version()
			step()
			if after := version(); after <= before {
				t.Errorf("step %d: served version %d after a merge, %d before it", i, after, before)
			}
			readAll()
		}
	} else {
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
						readAll()
					}
				}
			}()
		}
		go1 := make(chan struct{})
		var writers sync.WaitGroup
		for k := range solvers {
			writers.Add(1)
			go func() { defer writers.Done(); <-go1; approve(k) }()
		}
		writers.Add(1)
		go func() { defer writers.Done(); <-go1; mine() }()
		close(go1)
		writers.Wait()
		close(stop)
		readers.Wait()
		readAll()
	}
	if t.Failed() {
		return
	}
	if mined.Merged == 0 {
		t.Fatalf("the mining round merged nothing: %+v", mined)
	}
	merges := writerCount + mined.Merged

	// Every approved edit is served, and the log grew by exactly the
	// merges' events: a checkpoint each, plus one per SME instruction and
	// the mined edits.
	served, err := svc.Engine(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	kset := served.KnowledgeSet()
	editors := map[string]int{}
	checkpoints := 0
	for _, ev := range kset.HistorySince(hist0) {
		if ev.Op == knowledge.OpCheckpoint {
			checkpoints++
			continue
		}
		editors[ev.Editor]++
	}
	if checkpoints != merges {
		t.Errorf("served log holds %d merge checkpoints, want %d (%d SME + %d mined)", checkpoints, merges, writerCount, mined.Merged)
	}
	for k := range solvers {
		if editors[writerEditor(k)] != 1 || !hasInstruction(kset, writerInstruction(k)) {
			t.Errorf("writer %d's instruction is not served (events by editor: %v)", k, editors)
		}
	}
	minedIDs := map[string]bool{}
	for _, ev := range kset.History() {
		if ev.Editor == genedit.MinerEditor {
			minedIDs[ev.FeedbackID] = true
		}
	}
	for _, id := range mined.MergedIDs {
		if !minedIDs[id] {
			t.Errorf("mined change %s is not in the served log", id)
		}
	}
	if kset.Version() <= v0 {
		t.Errorf("served version %d, %d before the merges", kset.Version(), v0)
	}

	// The served version never goes back, and a record served by a read
	// that started after a merge was published must not have existed
	// before that merge.
	made := map[*genedit.Record]int{}
	for _, r := range reads {
		if r.then < r.before {
			t.Errorf("the served version went back from %d to %d", r.before, r.then)
		}
		if v, ok := made[r.rec]; !ok || r.then < v {
			made[r.rec] = r.then
		}
	}
	for _, r := range reads {
		if existed := made[r.rec]; r.before > existed {
			t.Errorf("a read at version %d was served a record that existed at version %d", r.before, existed)
			break
		}
	}

	if !durable {
		return
	}
	want, err := json.Marshal(kset.State())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := genedit.NewService(suite, genedit.WithModelSeed(42), genedit.WithStorePath(dir))
	defer reopened.Close()
	rec, err := reopened.Engine(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rec.KnowledgeSet().State())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("the reopened store recovered a set (version %d) that differs from the served one (version %d)",
			rec.KnowledgeSet().Version(), kset.Version())
	}
}

func writerInstruction(k int) string { return fmt.Sprintf("ins-writer-%d", k) }
func writerEditor(k int) string      { return fmt.Sprintf("writer-%d", k) }

func hasInstruction(kset *knowledge.Set, id string) bool {
	for _, ins := range kset.Instructions() {
		if ins.ID == id {
			return true
		}
	}
	return false
}

func mustKnowledge(t *testing.T, svc *genedit.Service, db string) *genedit.KnowledgeInfo {
	t.Helper()
	info, err := svc.Knowledge(context.Background(), db, 0)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestSolverSessionsGetDistinctFeedbackIDs: sessions opened at once through
// two Service.Solvers on one database get distinct feedback IDs — the
// database's owner numbers them — so their merges are audited apart: each
// checkpoints under its own name and stamps its own ID on its edit.
func TestSolverSessionsGetDistinctFeedbackIDs(t *testing.T) {
	ctx := context.Background()
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, genedit.WithModelSeed(42))
	defer svc.Close()
	const db = "sports_holdings"
	cases := suite.Golden(db, 2)

	sessions := make([]*feedback.Session, len(cases))
	solvers := make([]*genedit.Solver, len(cases))
	var wg sync.WaitGroup
	for k := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := svc.Solver(ctx, db, suite.Golden(db, 4))
			if err != nil {
				t.Error(err)
				return
			}
			if sessions[k], err = s.OpenContext(ctx, cases[k].Question, cases[k].Evidence); err != nil {
				t.Error(err)
			}
			solvers[k] = s
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if a, b := sessions[0].FeedbackID, sessions[1].FeedbackID; a == b {
		t.Fatalf("two sessions on %s share feedback ID %s", db, a)
	}

	for k, sess := range sessions {
		sess.Stage(knowledge.Edit{Op: knowledge.EditInsert, Kind: knowledge.InstructionEntity,
			Instruction: &knowledge.Instruction{ID: writerInstruction(k), Text: fmt.Sprintf("Writer %d audit note: keep column aliases short.", k)}})
		res, err := sess.SubmitContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed {
			t.Fatalf("session %s: gate rejected a harmless instruction: %s", sess.FeedbackID, res.Detail)
		}
		if err := solvers[k].Approve(res.Pending, "reviewer"); err != nil {
			t.Fatal(err)
		}
	}

	served, err := svc.Engine(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	kset := served.KnowledgeSet()
	names := map[string]bool{}
	for _, cp := range kset.Checkpoints() {
		names[cp.Name] = true
	}
	stamped := map[string]string{}
	for _, ev := range kset.History() {
		if ev.Op != knowledge.OpCheckpoint && ev.FeedbackID != "" {
			stamped[ev.EntityID] = ev.FeedbackID
		}
	}
	for k, sess := range sessions {
		if !names["before-"+sess.FeedbackID] {
			t.Errorf("no checkpoint before-%s among %v", sess.FeedbackID, names)
		}
		if got := stamped[writerInstruction(k)]; got != sess.FeedbackID {
			t.Errorf("instruction %s is stamped %q, want %s", writerInstruction(k), got, sess.FeedbackID)
		}
	}
	if len(names) != len(sessions) {
		t.Errorf("%d merges left checkpoints %v, want %d distinct names", len(sessions), names, len(sessions))
	}
}
