package genedit_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"genedit"
	"genedit/internal/embed"
	"genedit/internal/feedback"
	"genedit/internal/workload"
)

// TestGenerationCacheDisabledMatchesEnabled: with the cache off the service
// reproduces uncached behavior exactly; with it on, responses carry the
// identical SQL with the shared Record, and repeats are flagged Cached.
func TestGenerationCacheDisabledMatchesEnabled(t *testing.T) {
	ctx := context.Background()
	suite := genedit.NewBenchmark(1)
	plain := genedit.NewService(suite, genedit.WithModelSeed(42))
	cached := genedit.NewService(suite, genedit.WithModelSeed(42), genedit.WithGenerationCache(128))
	zero := genedit.NewService(suite, genedit.WithModelSeed(42), genedit.WithGenerationCache(0))

	if plain.GenerationCacheEnabled() || zero.GenerationCacheEnabled() {
		t.Fatal("cache should be disabled by default and at size 0")
	}
	if !cached.GenerationCacheEnabled() {
		t.Fatal("WithGenerationCache(128) should enable the cache")
	}

	for i, c := range dbCases(suite) {
		if i >= 6 {
			break
		}
		req := genedit.Request{Database: storeDB, Question: c.Question, Evidence: c.Evidence}
		want, err := plain.Generate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		zresp, err := zero.Generate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if zresp.SQL != want.SQL || zresp.OK != want.OK || zresp.Cached {
			t.Errorf("case %s: size-0 cache diverged from uncached serving", c.ID)
		}
		first, err := cached.Generate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		second, err := cached.Generate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if first.Cached {
			t.Errorf("case %s: first request reported Cached", c.ID)
		}
		if !second.Cached {
			t.Errorf("case %s: repeat request not served from cache", c.ID)
		}
		if first.SQL != want.SQL || second.SQL != want.SQL {
			t.Errorf("case %s: cached SQL %q / %q, want %q", c.ID, first.SQL, second.SQL, want.SQL)
		}
		if first.Record != second.Record {
			t.Errorf("case %s: cache hit did not share the Record", c.ID)
		}
	}
	st := cached.GenerationCacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("cache stats = %+v, want hits and misses", st)
	}
}

// TestCoalescedGenerateSharesOneRecord fires many concurrent identical cold
// requests and checks they all resolve to the same shared Record — one
// pipeline run, not N.
func TestCoalescedGenerateSharesOneRecord(t *testing.T) {
	ctx := context.Background()
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, genedit.WithModelSeed(42), genedit.WithGenerationCache(128))
	c := dbCases(suite)[0]

	// Prewarm the engine so workers race on the generation, not the build.
	if _, err := svc.Engine(ctx, storeDB); err != nil {
		t.Fatal(err)
	}

	const workers = 12
	recs := make([]*genedit.Record, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := svc.Generate(ctx, genedit.Request{Database: storeDB, Question: c.Question, Evidence: c.Evidence})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			recs[i] = resp.Record
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if recs[i] != recs[0] {
			t.Fatalf("worker %d resolved a different Record than worker 0", i)
		}
	}
	st := svc.GenerationCacheStats()
	if st.Misses != 1 {
		t.Errorf("stats = %+v, want exactly one generation (miss)", st)
	}
	if st.Hits+st.Coalesced != workers-1 {
		t.Errorf("stats = %+v, want %d shared servings", st, workers-1)
	}
}

// TestConcurrentGenerateHotSwapClose is the serving-path stress test:
// concurrent Generate traffic (cache hits and misses) interleaved with
// Approve-driven engine hot-swaps and a final Close, run under -race in CI.
// It asserts the version-keyed cache contract: a question answered (and
// cached) before a swap is re-generated against the new knowledge version
// after it — post-swap requests never see pre-swap records. It runs on the
// standard suite and on 10x query-log knowledge, and on both it checks that
// every retrieval search scored its whole index exactly once.
func TestConcurrentGenerateHotSwapClose(t *testing.T) {
	t.Run("standard", func(t *testing.T) {
		hotSwapUnderLoad(t, genedit.NewBenchmark(1))
	})
	t.Run("knowledge_x10", func(t *testing.T) {
		hotSwapUnderLoad(t, workload.NewScaledSuite(1, workload.ScaleConfig{DBFactor: 1, KnowledgeFactor: 10}))
	})
}

// hotSwapUnderLoad runs the stress test on one suite. Once the load has
// stopped it reads the retrieval counters of the engine served before the
// approval and of the one served after it: each index must have been
// searched, and every search scores each vector slot of the index once — one
// per distinct text — so CandidatesScanned must equal Searches × the index's
// slot count.
func hotSwapUnderLoad(t *testing.T, suite *genedit.Benchmark) {
	ctx := context.Background()
	svc := genedit.NewService(suite,
		genedit.WithModelSeed(42),
		genedit.WithGenerationCache(512),
		genedit.WithStorePath(t.TempDir()))

	cases := dbCases(suite)
	if len(cases) < 8 {
		t.Fatalf("need at least 8 cases for %s, have %d", storeDB, len(cases))
	}
	// Workers replay the first few questions (hits after the first pass)
	// plus unique variants (misses); the feedback loop scans the rest.
	hotCases, swapCases := cases[:4], cases[4:]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := hotCases[(w+i)%len(hotCases)]
				q := c.Question
				if i%3 == 2 {
					// A never-repeated spelling: exercises the miss path and
					// LRU churn alongside the hits.
					q = fmt.Sprintf("%s (variant %d-%d)", q, w, i)
				}
				if _, err := svc.Generate(ctx, genedit.Request{Database: storeDB, Question: q, Evidence: c.Evidence}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	// Drive one full feedback session to an approval while traffic flows.
	solver, err := svc.Solver(ctx, storeDB, goldenOf(suite))
	if err != nil {
		t.Fatal(err)
	}
	sme := feedback.NewSimulatedSME(7)
	var preSwap *genedit.Engine
	swapped := false
	for _, c := range swapCases {
		pre, err := svc.Generate(ctx, genedit.Request{Database: storeDB, Question: c.Question, Evidence: c.Evidence})
		if err != nil {
			t.Fatal(err)
		}
		// Cache the question pre-swap (a second call must hit).
		pre2, err := svc.Generate(ctx, genedit.Request{Database: storeDB, Question: c.Question, Evidence: c.Evidence})
		if err != nil {
			t.Fatal(err)
		}
		if !pre2.Cached || pre2.Record != pre.Record {
			t.Fatalf("case %s: expected pre-swap repeat to be cached", c.ID)
		}
		sess, err := solver.OpenContext(ctx, c.Question, c.Evidence)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := sess.Feedback(sme.FeedbackFor(c, sess.Record))
		if err != nil {
			t.Fatal(err)
		}
		staged, _ := sme.ReviewEdits(c, fb.Edits)
		sess.Stage(staged...)
		regen, err := sess.RegenerateContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if regen.FinalSQL == pre.SQL {
			continue // the merge would not change this question's answer
		}
		res, err := sess.SubmitContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed {
			continue
		}
		if preSwap, err = svc.Engine(ctx, storeDB); err != nil {
			t.Fatal(err)
		}
		if err := solver.Approve(res.Pending, "reviewer"); err != nil {
			t.Fatal(err)
		}
		// Version-key isolation: the post-swap request must be re-generated
		// against the new knowledge version, not served the stale record.
		post, err := svc.Generate(ctx, genedit.Request{Database: storeDB, Question: c.Question, Evidence: c.Evidence})
		if err != nil {
			t.Fatal(err)
		}
		if post.Record == pre.Record {
			t.Fatalf("case %s: post-swap request served the pre-swap record", c.ID)
		}
		if post.SQL != regen.FinalSQL {
			t.Errorf("case %s: post-swap SQL %q, want regenerated %q", c.ID, post.SQL, regen.FinalSQL)
		}
		swapped = true
		break
	}
	if !swapped {
		t.Fatal("no hot-swap was exercised (no approvable change altered its question's SQL)")
	}

	close(stop)
	wg.Wait()

	// Close while a last burst of requests is in flight: in-flight and
	// post-Close generations run on in-memory engines and must not fail.
	var cg sync.WaitGroup
	for i := 0; i < 4; i++ {
		cg.Add(1)
		go func(i int) {
			defer cg.Done()
			c := hotCases[i%len(hotCases)]
			if _, err := svc.Generate(ctx, genedit.Request{Database: storeDB, Question: c.Question, Evidence: c.Evidence}); err != nil {
				t.Errorf("generate during close: %v", err)
			}
		}(i)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	cg.Wait()

	st := svc.GenerationCacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("stress run recorded no cache traffic: %+v", st)
	}

	postSwap, err := svc.Engine(ctx, storeDB)
	if err != nil {
		t.Fatal(err)
	}
	if postSwap == preSwap {
		t.Fatal("the approval did not swap the served engine")
	}
	for name, e := range map[string]*genedit.Engine{"pre-swap": preSwap, "post-swap": postSwap} {
		kset, rs := e.KnowledgeSet(), e.RetrievalStats()
		exTexts, insTexts := make(map[string]bool), make(map[string]bool)
		for _, ex := range kset.Examples() {
			exTexts[ex.Text()] = true
		}
		for _, ins := range kset.Instructions() {
			insTexts[ins.RetrievalText()] = true
		}
		for index, c := range map[string]struct {
			st    embed.SearchStats
			slots int
		}{
			"examples":     {rs.Examples, len(exTexts)},
			"instructions": {rs.Instructions, len(insTexts)},
		} {
			t.Logf("%s engine, %s index of %d slots: %d searches, %d candidates", name, index, c.slots, c.st.Searches, c.st.CandidatesScanned)
			if c.st.Searches == 0 || c.st.CandidatesScanned != c.st.Searches*uint64(c.slots) {
				t.Errorf("%s engine, %s index of %d slots: %d searches scored %d candidates, want a positive number of searches scoring each slot once",
					name, index, c.slots, c.st.Searches, c.st.CandidatesScanned)
			}
		}
	}
}
