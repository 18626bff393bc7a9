package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"genedit"
	"genedit/internal/eval"
	"genedit/internal/feedback"
	"genedit/internal/knowledge"
	"genedit/internal/task"
	"genedit/internal/workload"
)

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, raw
}

const fbDB = "sports_holdings"

// newStoreServer spins up a daemon over a durable store directory and
// returns the test server plus a closer that simulates a clean kill.
func newStoreServer(t *testing.T, dir string) (*httptest.Server, func()) {
	t.Helper()
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, testOpts(genedit.WithModelSeed(42), genedit.WithStorePath(dir))...)
	srv := httptest.NewServer(newMux(svc, suite, muxConfig{perReq: 30 * time.Second}))
	closed := false
	closer := func() {
		if closed {
			return
		}
		closed = true
		srv.Close()
		svc.Close()
	}
	t.Cleanup(closer)
	return srv, closer
}

func decode[T any](t *testing.T, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return v
}

func getKnowledge(t *testing.T, base string) knowledgeResponse {
	t.Helper()
	resp, raw := getURL(t, base+"/v1/knowledge/"+fbDB)
	if resp.StatusCode != 200 {
		t.Fatalf("GET knowledge = %d: %s", resp.StatusCode, raw)
	}
	return decode[knowledgeResponse](t, raw)
}

// TestFeedbackLoopEndToEnd drives the full online continuous-improvement
// flow over HTTP — open → regenerate → submit → approve — against a
// durable store, then restarts the daemon and asserts the knowledge
// version and audit history survive the kill.
func TestFeedbackLoopEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv, kill := newStoreServer(t, dir)

	// A deterministic twin of the daemon's stack crafts the SME feedback
	// (FeedbackFor needs the generation record) and finds failing cases.
	suite := genedit.NewBenchmark(1)
	local := genedit.NewService(suite, testOpts(genedit.WithModelSeed(42))...)
	runner := eval.NewRunner(suite.Databases)
	sme := feedback.NewSimulatedSME(7)

	var cases []*task.Case
	for _, c := range suite.Cases {
		if c.DB == fbDB {
			cases = append(cases, c)
		}
	}

	approvedVersion := 0
	for _, c := range cases {
		resp, err := local.Generate(t.Context(), genedit.Request{Database: fbDB, Question: c.Question, Evidence: c.Evidence})
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := runner.Evaluate(c, resp.SQL); ok {
			continue
		}

		body, _ := json.Marshal(feedbackOpenRequest{Database: fbDB, Question: c.Question, Evidence: c.Evidence})
		hresp, raw := postJSON(t, srv.URL+"/v1/feedback/open", string(body))
		if hresp.StatusCode != 200 {
			t.Fatalf("open = %d: %s", hresp.StatusCode, raw)
		}
		opened := decode[feedbackOpenResponse](t, raw)
		if opened.ID == "" || opened.SQL == "" {
			t.Fatalf("open response incomplete: %s", raw)
		}
		if opened.SQL != resp.SQL {
			t.Fatalf("daemon initial SQL %q != local twin %q", opened.SQL, resp.SQL)
		}

		fbText, _ := json.Marshal(regenerateRequest{Feedback: sme.FeedbackFor(c, resp.Record)})
		hresp, raw = postJSON(t, srv.URL+"/v1/feedback/"+opened.ID+"/regenerate", string(fbText))
		if hresp.StatusCode != 200 {
			t.Fatalf("regenerate = %d: %s", hresp.StatusCode, raw)
		}
		regen := decode[regenerateResponse](t, raw)
		if len(regen.Edits) == 0 {
			t.Fatalf("regenerate staged no edits: %s", raw)
		}

		hresp, raw = postJSON(t, srv.URL+"/v1/feedback/"+opened.ID+"/submit", `{}`)
		if hresp.StatusCode != 200 {
			t.Fatalf("submit = %d: %s", hresp.StatusCode, raw)
		}
		sub := decode[submitResponse](t, raw)
		if !sub.Passed {
			continue // regression gate rejected; try another case
		}

		hresp, raw = postJSON(t, srv.URL+"/v1/feedback/"+opened.ID+"/approve", `{"approver":"reviewer"}`)
		if hresp.StatusCode != 200 {
			t.Fatalf("approve = %d: %s", hresp.StatusCode, raw)
		}
		appr := decode[approveResponse](t, raw)
		if !appr.Persisted || appr.PersistedSeq != appr.KnowledgeVersion {
			t.Fatalf("approve not persisted through its version: %+v", appr)
		}
		// An approved session is evicted; a second approval must 404.
		hresp, _ = postJSON(t, srv.URL+"/v1/feedback/"+opened.ID+"/approve", `{}`)
		if hresp.StatusCode != 404 {
			t.Errorf("double approve = %d, want 404 after eviction", hresp.StatusCode)
		}
		approvedVersion = appr.KnowledgeVersion
		break
	}
	if approvedVersion == 0 {
		t.Fatal("no feedback session reached approval")
	}

	before := getKnowledge(t, srv.URL)
	if before.Version != approvedVersion {
		t.Errorf("knowledge version = %d, want %d", before.Version, approvedVersion)
	}
	if !before.Persisted || before.PersistedSeq != before.Version {
		t.Errorf("store not caught up: %+v", before)
	}
	if before.HistoryLen == 0 || len(before.History) == 0 {
		t.Error("knowledge endpoint returned no history")
	}

	// Kill the daemon and restart over the same store: the approved
	// version and full change history must survive.
	kill()
	srv2, _ := newStoreServer(t, dir)
	after := getKnowledge(t, srv2.URL)
	if after.Version != before.Version {
		t.Errorf("restarted version = %d, want %d", after.Version, before.Version)
	}
	if after.HistoryLen != before.HistoryLen {
		t.Errorf("restarted history len = %d, want %d", after.HistoryLen, before.HistoryLen)
	}
	if after.Examples != before.Examples || after.Instructions != before.Instructions {
		t.Errorf("restarted counts %+v, want %+v", after, before)
	}

	// And the restarted daemon still serves generations over the recovered
	// knowledge.
	body, _ := json.Marshal(generateRequest{Database: fbDB, Question: cases[0].Question, Evidence: cases[0].Evidence})
	hresp, raw := postJSON(t, srv2.URL+"/v1/generate", string(body))
	if hresp.StatusCode != 200 {
		t.Fatalf("generate after restart = %d: %s", hresp.StatusCode, raw)
	}
	if got := decode[generateResponse](t, raw); got.SQL == "" {
		t.Error("empty SQL after restart")
	}
}

func TestFeedbackEndpointErrors(t *testing.T) {
	srv := newTestServer(t, 30*time.Second)

	// Unknown session IDs.
	for _, ep := range []string{"regenerate", "submit", "approve"} {
		resp, _ := postJSON(t, srv.URL+"/v1/feedback/nope/"+ep, `{"feedback":"x"}`)
		if resp.StatusCode != 404 {
			t.Errorf("%s on unknown session = %d, want 404", ep, resp.StatusCode)
		}
	}
	// Unknown database on open and on the knowledge endpoint.
	resp, _ := postJSON(t, srv.URL+"/v1/feedback/open", `{"database":"nope","question":"q"}`)
	if resp.StatusCode != 404 {
		t.Errorf("open on unknown db = %d, want 404", resp.StatusCode)
	}
	resp, _ = getURL(t, srv.URL+"/v1/knowledge/nope")
	if resp.StatusCode != 404 {
		t.Errorf("knowledge on unknown db = %d, want 404", resp.StatusCode)
	}
	// Missing fields.
	resp, _ = postJSON(t, srv.URL+"/v1/feedback/open", `{"database":"retail_chain"}`)
	if resp.StatusCode != 400 {
		t.Errorf("open without question = %d, want 400", resp.StatusCode)
	}

	// Approve before a passing submit must conflict.
	suite := genedit.NewBenchmark(1)
	var c *task.Case
	for _, cc := range suite.Cases {
		if cc.DB == fbDB {
			c = cc
			break
		}
	}
	body, _ := json.Marshal(feedbackOpenRequest{Database: fbDB, Question: c.Question, Evidence: c.Evidence})
	hresp, raw := postJSON(t, srv.URL+"/v1/feedback/open", string(body))
	if hresp.StatusCode != 200 {
		t.Fatalf("open = %d: %s", hresp.StatusCode, raw)
	}
	opened := decode[feedbackOpenResponse](t, raw)
	hresp, _ = postJSON(t, srv.URL+"/v1/feedback/"+opened.ID+"/approve", `{}`)
	if hresp.StatusCode != 409 {
		t.Errorf("approve without submit = %d, want 409", hresp.StatusCode)
	}
	// Submitting with nothing staged is a client error, not a crash.
	hresp, _ = postJSON(t, srv.URL+"/v1/feedback/"+opened.ID+"/submit", `{}`)
	if hresp.StatusCode == 200 {
		t.Error("submit with nothing staged should fail")
	}
}

// TestKnowledgeEndpoint covers the inspection surface on a plain in-memory
// daemon: counts are populated, the ?n= bound works, and an n that is not
// a whole non-negative decimal is a 400 — never a prefix read as a number,
// and never 0, which would ask for the full audit log.
func TestKnowledgeEndpoint(t *testing.T) {
	srv := newTestServer(t, 30*time.Second)
	resp, raw := getURL(t, srv.URL+"/v1/knowledge/"+fbDB+"?n=5")
	if resp.StatusCode != 200 {
		t.Fatalf("knowledge = %d: %s", resp.StatusCode, raw)
	}
	got := decode[knowledgeResponse](t, raw)
	if got.Database != fbDB || got.Version == 0 || got.Examples == 0 || got.Instructions == 0 {
		t.Errorf("knowledge response incomplete: %+v", got)
	}
	if got.Persisted {
		t.Error("in-memory daemon must not report a persistent store")
	}
	if len(got.History) != 5 {
		t.Errorf("history tail = %d events, want 5", len(got.History))
	}
	if got.HistoryLen <= 5 {
		t.Errorf("history_len = %d, want the full log length", got.HistoryLen)
	}
	for _, tc := range []struct {
		n       string
		status  int
		history int
	}{
		{"3", 200, 3},
		{"bogus", 400, 0},
		{"5abc", 400, 0},
		{"3.5", 400, 0},
		{"0x10", 400, 0},
		{"-1", 400, 0},
	} {
		resp, raw := getURL(t, srv.URL+"/v1/knowledge/"+fbDB+"?n="+tc.n)
		if resp.StatusCode != tc.status {
			t.Errorf("n=%s: status %d, want %d", tc.n, resp.StatusCode, tc.status)
			continue
		}
		if tc.status == 200 {
			if got := decode[knowledgeResponse](t, raw); len(got.History) != tc.history {
				t.Errorf("n=%s: history tail = %d events, want %d", tc.n, len(got.History), tc.history)
			}
		}
	}
}

// TestMinerAndSMEOnOneDatabase: an SME session opened before a mining
// round on the same database is approved after it. The approval lands on
// the mined engine — 200, with the store behind it or without — and the
// full knowledge log lists the mined events and the SME's.
func TestMinerAndSMEOnOneDatabase(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "store"}[durable], func(t *testing.T) {
			minerAndSMEOverHTTP(t, durable)
		})
	}
}

func minerAndSMEOverHTTP(t *testing.T, durable bool) {
	suite, injected := workload.NewMinerSuite(1)
	db := injected[0].DB
	opts := []genedit.Option{genedit.WithModelSeed(42), genedit.WithGenerationCache(256), genedit.WithMiner()}
	if durable {
		opts = append(opts, genedit.WithStorePath(t.TempDir()))
	}
	svc := genedit.NewService(suite, testOpts(opts...)...)
	t.Cleanup(func() { svc.Close() })
	srv := httptest.NewServer(newMux(svc, suite, muxConfig{perReq: 30 * time.Second}))
	t.Cleanup(srv.Close)

	// The miner's input: the database's recurring exec failures.
	for _, c := range injected {
		if c.DB != db {
			continue
		}
		body, _ := json.Marshal(generateRequest{Database: db, Question: c.Question, Evidence: c.Evidence})
		if resp, raw := postJSON(t, srv.URL+"/v1/generate", string(body)); resp.StatusCode != http.StatusOK {
			t.Fatalf("generate %s = %d: %s", c.ID, resp.StatusCode, raw)
		}
	}

	// SME sessions on the database's failing cases, opened and regenerated
	// before the mining round. A twin service supplies the records the
	// simulated SME critiques.
	local := genedit.NewService(suite, testOpts(genedit.WithModelSeed(42))...)
	runner := eval.NewRunner(suite.Databases)
	sme := feedback.NewSimulatedSME(7)
	var sessions []string
	for _, c := range suite.Cases {
		if c.DB != db || len(sessions) == 4 {
			continue
		}
		resp, err := local.Generate(t.Context(), genedit.Request{Database: db, Question: c.Question, Evidence: c.Evidence})
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := runner.Evaluate(c, resp.SQL); ok {
			continue
		}
		body, _ := json.Marshal(feedbackOpenRequest{Database: db, Question: c.Question, Evidence: c.Evidence})
		hresp, raw := postJSON(t, srv.URL+"/v1/feedback/open", string(body))
		if hresp.StatusCode != http.StatusOK {
			t.Fatalf("open = %d: %s", hresp.StatusCode, raw)
		}
		id := decode[feedbackOpenResponse](t, raw).ID
		fbText, _ := json.Marshal(regenerateRequest{Feedback: sme.FeedbackFor(c, resp.Record)})
		hresp, raw = postJSON(t, srv.URL+"/v1/feedback/"+id+"/regenerate", string(fbText))
		if hresp.StatusCode != http.StatusOK {
			t.Fatalf("regenerate = %d: %s", hresp.StatusCode, raw)
		}
		if len(decode[regenerateResponse](t, raw).Edits) > 0 {
			sessions = append(sessions, id)
		}
	}
	if len(sessions) == 0 {
		t.Fatal("no SME session staged an edit")
	}

	var mined mineResponse
	for round := 0; round < 3 && mined.Report.Merged == 0; round++ {
		resp, raw := postJSON(t, srv.URL+"/v1/miner/"+db+"/mine", `{}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mine = %d: %s", resp.StatusCode, raw)
		}
		mined = decode[mineResponse](t, raw)
	}
	if mined.Report.Merged == 0 {
		t.Fatal("three mining rounds merged nothing")
	}

	approved := ""
	for _, id := range sessions {
		hresp, raw := postJSON(t, srv.URL+"/v1/feedback/"+id+"/submit", `{}`)
		if hresp.StatusCode != http.StatusOK {
			t.Fatalf("submit = %d: %s", hresp.StatusCode, raw)
		}
		if !decode[submitResponse](t, raw).Passed {
			continue
		}
		hresp, raw = postJSON(t, srv.URL+"/v1/feedback/"+id+"/approve", `{"approver":"reviewer"}`)
		if hresp.StatusCode != http.StatusOK {
			t.Fatalf("approve after a mining round = %d: %s", hresp.StatusCode, raw)
		}
		approved = id
		break
	}
	if approved == "" {
		t.Fatal("no SME submission passed the regression gate")
	}

	resp, raw := getURL(t, srv.URL+"/v1/knowledge/"+db+"?n=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("knowledge = %d: %s", resp.StatusCode, raw)
	}
	byFeedback := map[string]bool{}
	smeEvents := 0
	for _, ev := range decode[knowledgeResponse](t, raw).History {
		if ev.Editor == genedit.MinerEditor {
			byFeedback[ev.FeedbackID] = true
		}
		if ev.Editor == "reviewer" {
			smeEvents++
		}
	}
	for _, id := range mined.Report.MergedIDs {
		if !byFeedback[id] {
			t.Errorf("mined change %s is missing from the knowledge log", id)
		}
	}
	if smeEvents == 0 {
		t.Errorf("the SME's approved session %s left no event in the knowledge log", approved)
	}
}

// TestApproveOnMovedVersionConflicts: SME sessions on one database all
// submit against the same knowledge version, then approve in order. An
// approval whose edits regress golden cases on the version the earlier
// merges made answers 409 naming both versions and leaves the served
// version as it was; its change is withdrawn, so approving it again is 409
// too, while the session stays open for a new submission.
func TestApproveOnMovedVersionConflicts(t *testing.T) {
	const db = "retail_chain"
	srv := newTestServer(t, 30*time.Second)
	suite := genedit.NewBenchmark(1)
	local := genedit.NewService(suite, testOpts(genedit.WithModelSeed(42))...)
	defer local.Close()
	runner := eval.NewRunner(suite.Databases)
	sme := feedback.NewSimulatedSME(7)
	version := func() int {
		resp, raw := getURL(t, srv.URL+"/v1/knowledge/"+db)
		if resp.StatusCode != 200 {
			t.Fatalf("GET knowledge = %d: %s", resp.StatusCode, raw)
		}
		return decode[knowledgeResponse](t, raw).Version
	}

	var ids []string
	for _, c := range suite.Cases {
		if c.DB != db || len(ids) == 3 {
			continue
		}
		resp, err := local.Generate(t.Context(), genedit.Request{Database: db, Question: c.Question, Evidence: c.Evidence})
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := runner.Evaluate(c, resp.SQL); ok {
			continue
		}
		body, _ := json.Marshal(feedbackOpenRequest{Database: db, Question: c.Question, Evidence: c.Evidence})
		hresp, raw := postJSON(t, srv.URL+"/v1/feedback/open", string(body))
		if hresp.StatusCode != 200 {
			t.Fatalf("open = %d: %s", hresp.StatusCode, raw)
		}
		id := decode[feedbackOpenResponse](t, raw).ID
		fbText, _ := json.Marshal(regenerateRequest{Feedback: sme.FeedbackFor(c, resp.Record)})
		if hresp, raw := postJSON(t, srv.URL+"/v1/feedback/"+id+"/regenerate", string(fbText)); hresp.StatusCode != 200 {
			t.Fatalf("regenerate = %d: %s", hresp.StatusCode, raw)
		}
		hresp, raw = postJSON(t, srv.URL+"/v1/feedback/"+id+"/submit", `{}`)
		if hresp.StatusCode != 200 {
			t.Fatalf("submit = %d: %s", hresp.StatusCode, raw)
		}
		if decode[submitResponse](t, raw).Passed {
			ids = append(ids, id)
		}
	}

	conflicts := 0
	for i, id := range ids {
		before := version()
		hresp, raw := postJSON(t, srv.URL+"/v1/feedback/"+id+"/approve", `{"approver":"reviewer"}`)
		switch hresp.StatusCode {
		case http.StatusOK:
			continue
		case http.StatusConflict:
		default:
			t.Fatalf("approve %d = %d: %s", i, hresp.StatusCode, raw)
		}
		conflicts++
		if i == 0 {
			t.Errorf("the first approval, on the version its gate replayed, answered 409: %s", raw)
		}
		if msg := decode[map[string]string](t, raw)["error"]; !strings.Contains(msg, fmt.Sprintf("on served version %d", before)) {
			t.Errorf("409 body %q does not name the served version %d", msg, before)
		}
		if after := version(); after != before {
			t.Errorf("a refused approval moved the version %d -> %d", before, after)
		}
		if hresp, raw := postJSON(t, srv.URL+"/v1/feedback/"+id+"/approve", `{}`); hresp.StatusCode != http.StatusConflict {
			t.Errorf("approving a refused change again = %d, want 409: %s", hresp.StatusCode, raw)
		}
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/feedback/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		del, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || decode[deleteResponse](t, del).Withdrawn {
			t.Errorf("delete of a refused session = %d %s, want 200 with nothing left to withdraw", resp.StatusCode, del)
		}
	}
	if len(ids) < 2 || conflicts == 0 {
		t.Fatalf("%d sessions approved with %d conflicts: the re-gate on a moved version was not exercised", len(ids), conflicts)
	}
}

// TestApproveOfDuplicateEditConflicts: two SME sessions on one database
// stage an insert of the same instruction ID and both pass their gate on
// one version. The first approval merges; the second's edit no longer
// applies to the served set, so it answers 409, leaves the version as it
// was and withdraws the change: approving again is 409 and DELETE finds
// nothing left to withdraw. (The simulated recommender lets the store pick
// IDs for its inserts, so the test stages the colliding edit in-process.)
func TestApproveOfDuplicateEditConflicts(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, testOpts(genedit.WithModelSeed(42))...)
	defer svc.Close()
	hub := newFeedbackHub(svc, suite, 0)
	mux := http.NewServeMux()
	hub.registerRoutes(mux, func(ctx context.Context) (context.Context, context.CancelFunc) {
		return context.WithTimeout(ctx, 30*time.Second)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := suite.Golden(fbDB, 1)[0]
	var ids []string
	for range 2 {
		body, _ := json.Marshal(feedbackOpenRequest{Database: fbDB, Question: c.Question, Evidence: c.Evidence})
		hresp, raw := postJSON(t, srv.URL+"/v1/feedback/open", string(body))
		if hresp.StatusCode != 200 {
			t.Fatalf("open = %d: %s", hresp.StatusCode, raw)
		}
		id := decode[feedbackOpenResponse](t, raw).ID
		fs := hub.session(id)
		fs.mu.Lock()
		fs.sess.Stage(knowledge.Edit{Op: knowledge.EditInsert, Kind: knowledge.InstructionEntity,
			Instruction: &knowledge.Instruction{ID: "ins-same", Text: "note"}})
		fs.mu.Unlock()
		hresp, raw = postJSON(t, srv.URL+"/v1/feedback/"+id+"/submit", `{}`)
		if hresp.StatusCode != 200 || !decode[submitResponse](t, raw).Passed {
			t.Fatalf("submit = %d: %s", hresp.StatusCode, raw)
		}
		ids = append(ids, id)
	}
	if hresp, raw := postJSON(t, srv.URL+"/v1/feedback/"+ids[0]+"/approve", `{}`); hresp.StatusCode != 200 {
		t.Fatalf("first approve = %d: %s", hresp.StatusCode, raw)
	}
	before := getKnowledge(t, srv.URL).Version
	if hresp, raw := postJSON(t, srv.URL+"/v1/feedback/"+ids[1]+"/approve", `{}`); hresp.StatusCode != http.StatusConflict {
		t.Fatalf("approving the duplicate insert = %d, want 409: %s", hresp.StatusCode, raw)
	}
	if after := getKnowledge(t, srv.URL).Version; after != before {
		t.Errorf("a refused approval moved the version %d -> %d", before, after)
	}
	if hresp, raw := postJSON(t, srv.URL+"/v1/feedback/"+ids[1]+"/approve", `{}`); hresp.StatusCode != http.StatusConflict {
		t.Errorf("approving the refused change again = %d, want 409: %s", hresp.StatusCode, raw)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/feedback/"+ids[1], nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || decode[deleteResponse](t, del).Withdrawn {
		t.Errorf("delete of the refused session = %d %s, want 200 with nothing left to withdraw", resp.StatusCode, del)
	}
}
