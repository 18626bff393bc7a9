package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"genedit"
	"genedit/internal/eval"
	"genedit/internal/feedback"
	"genedit/internal/task"
)

// seriesRe matches one Prometheus text-exposition sample line:
// name{labels} value.
var seriesRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) (\S+)$`)

// parseExposition parses a /metrics body into series → value, failing the
// test on any line that is neither a comment nor a well-formed sample.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		m := seriesRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil && m[2] != "+Inf" {
			t.Fatalf("unparseable sample value in %q: %v", line, err)
		}
		out[m[1]] = v
	}
	return out
}

func getMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, raw := getURL(t, base+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	return parseExposition(t, string(raw))
}

// TestMetricsEndToEnd drives a durable, cache- and admission-enabled daemon
// through the full serving repertoire — generate, cache hit, feedback
// approve (a WAL commit), a stale serve and a rate-limit shed — then
// asserts GET /metrics parses as text exposition with every counter moved
// accordingly, and that GET /v1/stats (derived from the same registry
// snapshot) agrees with it.
func TestMetricsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, testOpts(
		genedit.WithModelSeed(42),
		genedit.WithStorePath(dir),
		genedit.WithGenerationCache(64),
		// A big burst that never refills: the scripted flow fits inside it,
		// and draining the remainder sheds deterministically at the end.
		genedit.WithAdmission(genedit.AdmissionConfig{
			RatePerSec: 0.0001,
			Burst:      40,
		}),
	)...)
	t.Cleanup(func() { svc.Close() })
	srv := httptest.NewServer(newMux(svc, suite, muxConfig{perReq: 30 * time.Second}))
	t.Cleanup(srv.Close)

	// Readiness: no prewarm and healthy stores — ready from the start.
	resp, raw := getURL(t, srv.URL+"/readyz")
	if resp.StatusCode != 200 {
		t.Fatalf("GET /readyz = %d: %s", resp.StatusCode, raw)
	}

	// Local twin to find a failing case for the approve leg and craft SME
	// feedback for it.
	local := genedit.NewService(suite, testOpts(genedit.WithModelSeed(42))...)
	runner := eval.NewRunner(suite.Databases)
	sme := feedback.NewSimulatedSME(7)
	var failing *task.Case
	var failingRec *genedit.Record
	for _, c := range suite.Cases {
		if c.DB != fbDB {
			continue
		}
		lresp, err := local.Generate(t.Context(), genedit.Request{Database: fbDB, Question: c.Question, Evidence: c.Evidence})
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := runner.Evaluate(c, lresp.SQL); !ok {
			failing, failingRec = c, lresp.Record
			break
		}
	}
	if failing == nil {
		t.Fatal("no failing case found for the approve leg")
	}

	// Generate the same question twice: one miss, one cache hit.
	genBody, _ := json.Marshal(generateRequest{Database: failing.DB, Question: failing.Question, Evidence: failing.Evidence})
	for i := 0; i < 2; i++ {
		hresp, hraw := postJSON(t, srv.URL+"/v1/generate", string(genBody))
		if hresp.StatusCode != 200 {
			t.Fatalf("generate %d = %d: %s", i, hresp.StatusCode, hraw)
		}
	}

	// Approve leg: open → regenerate → submit → approve. Whether the gate
	// passes depends on the case; the WAL metrics only need the approve's
	// commit, so require a passing submit (the first failing case for this
	// suite/seed passes — the feedback e2e relies on the same flow).
	body, _ := json.Marshal(feedbackOpenRequest{Database: fbDB, Question: failing.Question, Evidence: failing.Evidence})
	hresp, hraw := postJSON(t, srv.URL+"/v1/feedback/open", string(body))
	if hresp.StatusCode != 200 {
		t.Fatalf("open = %d: %s", hresp.StatusCode, hraw)
	}
	opened := decode[feedbackOpenResponse](t, hraw)
	fbText, _ := json.Marshal(regenerateRequest{Feedback: sme.FeedbackFor(failing, failingRec)})
	hresp, hraw = postJSON(t, srv.URL+"/v1/feedback/"+opened.ID+"/regenerate", string(fbText))
	if hresp.StatusCode != 200 {
		t.Fatalf("regenerate = %d: %s", hresp.StatusCode, hraw)
	}
	hresp, hraw = postJSON(t, srv.URL+"/v1/feedback/"+opened.ID+"/submit", `{}`)
	if hresp.StatusCode != 200 {
		t.Fatalf("submit = %d: %s", hresp.StatusCode, hraw)
	}
	approved := decode[submitResponse](t, hraw).Passed
	if approved {
		hresp, hraw = postJSON(t, srv.URL+"/v1/feedback/"+opened.ID+"/approve", `{"approver":"reviewer"}`)
		if hresp.StatusCode != 200 {
			t.Fatalf("approve = %d: %s", hresp.StatusCode, hraw)
		}
	}

	// Drain the remaining burst until the bucket sheds. The question is
	// cached, so the shed degrades onto the cached answer: a stale 200.
	stales := 0
	for i := 0; i < 60 && stales == 0; i++ {
		hresp, hraw := postJSON(t, srv.URL+"/v1/generate", string(genBody))
		if hresp.StatusCode != 200 {
			t.Fatalf("drain request %d = %d, want 200: %s", i, hresp.StatusCode, hraw)
		}
		if decode[generateResponse](t, hraw).Stale {
			stales++
		}
	}
	if stales == 0 {
		t.Fatal("token bucket never shed")
	}
	// A never-asked question has no cached answer to fall back on: 429.
	coldBody, _ := json.Marshal(generateRequest{Database: failing.DB, Question: failing.Question + " (never asked)", Evidence: failing.Evidence})
	if hresp, hraw := postJSON(t, srv.URL+"/v1/generate", string(coldBody)); hresp.StatusCode != 429 {
		t.Fatalf("shed never-asked question = %d, want 429: %s", hresp.StatusCode, hraw)
	}

	m := getMetrics(t, srv.URL)
	series := func(name string) float64 {
		v, ok := m[name]
		if !ok {
			t.Fatalf("missing series %s in /metrics", name)
		}
		return v
	}
	okReqs := series(fmt.Sprintf(`genedit_requests_total{db="%s",outcome="ok"}`, fbDB))
	if okReqs < 2 {
		t.Errorf("ok requests = %g, want >= 2", okReqs)
	}
	if v := series(fmt.Sprintf(`genedit_requests_total{db="%s",outcome="rate_limited"}`, fbDB)); v < 1 {
		t.Errorf("rate_limited requests = %g, want >= 1", v)
	}
	if v := series(fmt.Sprintf(`genedit_requests_total{db="%s",outcome="stale"}`, fbDB)); v != float64(stales) {
		t.Errorf("stale requests = %g, want %d", v, stales)
	}
	if v := series(fmt.Sprintf(`genedit_request_duration_seconds_count{db="%s"}`, fbDB)); v != okReqs+float64(stales) {
		t.Errorf("latency observations = %g, want %g (one per ok or stale request)", v, okReqs+float64(stales))
	}
	if v := series("genedit_gencache_hits_total"); v < 1 {
		t.Errorf("cache hits = %g, want >= 1", v)
	}
	if v := series("genedit_admission_admitted_total"); v < 2 {
		t.Errorf("admitted = %g, want >= 2", v)
	}
	if v := series(`genedit_admission_shed_total{kind="rate_limited"}`); v < 1 {
		t.Errorf("shed rate_limited = %g, want >= 1", v)
	}
	// The durable seed build compacts at open, and an approve commits
	// through the WAL; either way the store's instruments must have fired.
	if v := series(fmt.Sprintf(`genedit_kstore_compactions_total{db="%s"}`, fbDB)); v < 1 {
		t.Errorf("compactions = %g, want >= 1 (seed snapshot)", v)
	}
	if approved {
		if v := series(fmt.Sprintf(`genedit_kstore_wal_append_seconds_count{db="%s"}`, fbDB)); v < 1 {
			t.Errorf("WAL appends = %g, want >= 1 after approve", v)
		}
	}

	// /v1/stats derives from the same registry snapshot; with no traffic
	// between the two reads the JSON numbers must equal the exposition's.
	var st statsResponse
	stResp, stRaw := getURL(t, srv.URL+"/v1/stats")
	if stResp.StatusCode != 200 {
		t.Fatalf("GET /v1/stats = %d: %s", stResp.StatusCode, stRaw)
	}
	if err := json.Unmarshal(stRaw, &st); err != nil {
		t.Fatal(err)
	}
	if float64(st.GenerationCache.Hits) != series("genedit_gencache_hits_total") {
		t.Errorf("stats hits %d != metrics %g", st.GenerationCache.Hits, series("genedit_gencache_hits_total"))
	}
	if float64(st.GenerationCache.Misses) != series("genedit_gencache_misses_total") {
		t.Errorf("stats misses %d != metrics %g", st.GenerationCache.Misses, series("genedit_gencache_misses_total"))
	}
	if float64(st.Admission.Admitted) != series("genedit_admission_admitted_total") {
		t.Errorf("stats admitted %d != metrics %g", st.Admission.Admitted, series("genedit_admission_admitted_total"))
	}
	if float64(st.Admission.RateLimited) != series(`genedit_admission_shed_total{kind="rate_limited"}`) {
		t.Errorf("stats rate_limited %d != metrics", st.Admission.RateLimited)
	}
	if ts, ok := st.Admission.Tenants[fbDB]; !ok {
		t.Errorf("stats tenants missing %s: %+v", fbDB, st.Admission.Tenants)
	} else if float64(ts.Admitted) != series(fmt.Sprintf(`genedit_admission_tenant_admitted_total{db="%s"}`, fbDB)) {
		t.Errorf("stats tenant admitted %d != metrics", ts.Admitted)
	}
}

// TestReadyzGatesOnPrewarm covers the readiness state machine: 503 while
// starting, 200 once marked ready, 503 with the error after a failed start.
func TestReadyzGatesOnPrewarm(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, testOpts(genedit.WithModelSeed(42))...)
	t.Cleanup(func() { svc.Close() })
	ready := &readiness{}
	srv := httptest.NewServer(newMux(svc, suite, muxConfig{perReq: 30 * time.Second, ready: ready}))
	t.Cleanup(srv.Close)

	resp, raw := getURL(t, srv.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("starting /readyz = %d, want 503; %s", resp.StatusCode, raw)
	}
	if st := decode[map[string]string](t, raw); st["status"] != "starting" {
		t.Errorf("starting status = %q", st["status"])
	}
	// Liveness is unaffected by readiness.
	if resp, _ := getURL(t, srv.URL+"/healthz"); resp.StatusCode != 200 {
		t.Errorf("healthz while starting = %d, want 200", resp.StatusCode)
	}

	ready.markReady(nil)
	if resp, raw := getURL(t, srv.URL+"/readyz"); resp.StatusCode != 200 {
		t.Errorf("ready /readyz = %d: %s", resp.StatusCode, raw)
	}

	ready.markReady(fmt.Errorf("prewarm failed: boom"))
	resp, raw = getURL(t, srv.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failed /readyz = %d, want 503", resp.StatusCode)
	}
	if st := decode[map[string]string](t, raw); st["status"] != "failed" || !strings.Contains(st["error"], "boom") {
		t.Errorf("failed status = %+v", st)
	}
}

// TestMetricsOptOut asserts -metrics=false removes the endpoint.
func TestMetricsOptOut(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, testOpts(genedit.WithModelSeed(42))...)
	t.Cleanup(func() { svc.Close() })
	srv := httptest.NewServer(newMux(svc, suite, muxConfig{noMetrics: true}))
	t.Cleanup(srv.Close)
	resp, _ := getURL(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics with noMetrics = %d, want 404", resp.StatusCode)
	}
	// /v1/stats still works — it reads the registry directly.
	if resp, raw := getURL(t, srv.URL+"/v1/stats"); resp.StatusCode != 200 {
		t.Fatalf("/v1/stats with noMetrics = %d: %s", resp.StatusCode, raw)
	}
}
