package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"genedit"
	"genedit/internal/metrics"
	"genedit/internal/workload"
)

// testOpts prefixes a fresh metrics registry onto the service options.
// Without it every test service would report into the process-global
// default registry, and tests asserting exact counter values (via /metrics)
// could see each other's bridges.
func testOpts(opts ...genedit.Option) []genedit.Option {
	return append([]genedit.Option{genedit.WithMetrics(metrics.NewRegistry())}, opts...)
}

func newTestServer(t *testing.T, timeout time.Duration) *httptest.Server {
	t.Helper()
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, testOpts(genedit.WithModelSeed(42))...)
	srv := httptest.NewServer(newMux(svc, suite, muxConfig{perReq: timeout}))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, raw
}

// TestGenerateEndToEnd drives the daemon's generate endpoint against a real
// suite case and asserts the produced SQL matches what the library API
// returns for the same request.
func TestGenerateEndToEnd(t *testing.T) {
	srv := newTestServer(t, 30*time.Second)

	suite := genedit.NewBenchmark(1)
	var q, db string
	for _, c := range suite.Cases {
		q, db = c.Question, c.DB
		break
	}

	body, _ := json.Marshal(generateRequest{Database: db, Question: q})
	resp, raw := postJSON(t, srv.URL+"/v1/generate", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, raw)
	}
	var got generateResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if got.SQL == "" {
		t.Fatalf("empty SQL in response %s", raw)
	}
	if got.Database != db {
		t.Fatalf("database = %q, want %q", got.Database, db)
	}
	if got.Attempts < 1 {
		t.Fatalf("attempts = %d, want >= 1", got.Attempts)
	}

	svc := genedit.NewService(suite, testOpts(genedit.WithModelSeed(42))...)
	want, err := svc.Generate(t.Context(), genedit.Request{Database: db, Question: q})
	if err != nil {
		t.Fatalf("library generate: %v", err)
	}
	if got.SQL != want.SQL {
		t.Fatalf("daemon SQL %q != library SQL %q", got.SQL, want.SQL)
	}
}

func TestGenerateUnknownDatabase(t *testing.T) {
	srv := newTestServer(t, time.Second)
	resp, raw := postJSON(t, srv.URL+"/v1/generate", `{"database":"nope","question":"q"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404; body %s", resp.StatusCode, raw)
	}
}

func TestGenerateBadRequest(t *testing.T) {
	srv := newTestServer(t, time.Second)
	resp, _ := postJSON(t, srv.URL+"/v1/generate", `{"database":"retail_chain"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing question: status = %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/generate", `{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status = %d, want 400", resp.StatusCode)
	}
}

// TestOversizedBodyIs413 sends each JSON route a well-formed body just over
// maxBodyBytes: the daemon must stop reading at the bound and answer 413,
// whatever the body would otherwise have got.
func TestOversizedBodyIs413(t *testing.T) {
	srv := newTestServer(t, time.Second)
	pad := strings.Repeat("x", maxBodyBytes)
	for _, tc := range []struct{ path, body string }{
		{"/v1/generate", `{"database":"nope","question":"` + pad + `"}`},
		{"/v1/generate/batch", `{"requests":[],"pad":"` + pad + `"}`},
		{"/v1/feedback/open", `{"database":"nope","question":"` + pad + `"}`},
	} {
		resp, raw := postJSON(t, srv.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status %d, want 413; body %.200s", tc.path, len(tc.body), resp.StatusCode, raw)
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv := newTestServer(t, 30*time.Second)
	suite := genedit.NewBenchmark(1)
	var reqs []generateRequest
	for _, c := range suite.Cases {
		reqs = append(reqs, generateRequest{Database: c.DB, Question: c.Question, Evidence: c.Evidence})
		if len(reqs) == 4 {
			break
		}
	}
	reqs = append(reqs, generateRequest{Database: "nope", Question: "q"})
	body, _ := json.Marshal(batchRequest{Requests: reqs})

	resp, raw := postJSON(t, srv.URL+"/v1/generate/batch", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, raw)
	}
	var got batchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if len(got.Responses) != len(reqs) {
		t.Fatalf("responses = %d, want %d", len(got.Responses), len(reqs))
	}
	for i := 0; i < 4; i++ {
		if got.Responses[i].SQL == "" {
			t.Errorf("response %d: empty SQL", i)
		}
	}
	if got.Responses[4].Error == "" {
		t.Errorf("unknown-database batch item should carry an error, got %+v", got.Responses[4])
	}
}

func TestDatabasesAndHealth(t *testing.T) {
	srv := newTestServer(t, time.Second)
	resp, err := http.Get(srv.URL + "/v1/databases")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Databases []string `json:"databases"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Databases) != 8 {
		t.Fatalf("databases = %d, want 8", len(got.Databases))
	}
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", hresp.StatusCode)
	}
}

// TestMinerEndpoints drives the self-improving loop over HTTP: serve the
// miner workload's injected recurring-failure cases, check the failure
// counters surface on /v1/miner/{db} and /v1/stats, trigger a mining round
// via POST /v1/miner/{db}/mine, and check it reports gated merges.
func TestMinerEndpoints(t *testing.T) {
	suite, injected := workload.NewMinerSuite(1)
	svc := genedit.NewService(suite, testOpts(
		genedit.WithModelSeed(42),
		genedit.WithGenerationCache(256),
		genedit.WithMiner())...)
	t.Cleanup(func() { svc.Close() })
	srv := httptest.NewServer(newMux(svc, suite, muxConfig{perReq: 30 * time.Second}))
	t.Cleanup(srv.Close)

	db := injected[0].DB
	for _, c := range injected {
		if c.DB != db {
			continue
		}
		body, _ := json.Marshal(generateRequest{Database: c.DB, Question: c.Question, Evidence: c.Evidence})
		resp, raw := postJSON(t, srv.URL+"/v1/generate", string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("generate %s: status %d, body %s", c.ID, resp.StatusCode, raw)
		}
	}

	var status minerStatusResponse
	getJSON(t, srv.URL+"/v1/miner/"+db, &status)
	if !status.Enabled {
		t.Error("miner should report enabled")
	}
	if status.Failures.Exec == 0 {
		t.Errorf("failures = %+v, want exec failures recorded", status.Failures)
	}

	resp, raw := postJSON(t, srv.URL+"/v1/miner/"+db+"/mine", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: status %d, body %s", resp.StatusCode, raw)
	}
	var mined mineResponse
	if err := json.Unmarshal(raw, &mined); err != nil {
		t.Fatal(err)
	}
	if mined.Report.Merged == 0 {
		t.Fatalf("mining round merged nothing: %s", raw)
	}

	var stats statsResponse
	getJSON(t, srv.URL+"/v1/stats", &stats)
	if !stats.MinerEnabled {
		t.Error("stats should report the miner enabled")
	}
	if stats.Miner[db].Merged != mined.Report.Merged {
		t.Errorf("stats miner counters = %+v, want merged %d", stats.Miner[db], mined.Report.Merged)
	}
	if stats.Failures[db].Exec == 0 {
		t.Error("stats should carry the per-db failure counters")
	}

	// The failures and miner sections agree with /metrics series for series.
	series := getMetrics(t, srv.URL)
	fs, ms := stats.Failures[db], stats.Miner[db]
	for kind, want := range map[string]uint64{"syntax": fs.Syntax, "exec": fs.Exec, "canceled": fs.Canceled} {
		name := fmt.Sprintf("genedit_failures_total{db=%q,kind=%q}", db, kind)
		if got, ok := series[name]; !ok || got != float64(want) {
			t.Errorf("%s = %v (present %v), /v1/stats says %d", name, got, ok, want)
		}
	}
	for name, want := range map[string]int{
		"rounds": ms.Rounds, "scanned": ms.Scanned, "clusters": ms.Clusters, "candidates": ms.Candidates,
		"merged": ms.Merged, "rejected": ms.Rejected, "unactionable": ms.Unactionable,
	} {
		name = fmt.Sprintf("genedit_miner_%s_total{db=%q}", name, db)
		if got, ok := series[name]; !ok || got != float64(want) {
			t.Errorf("%s = %v (present %v), /v1/stats says %d", name, got, ok, want)
		}
	}

	if resp, _ := postJSON(t, srv.URL+"/v1/miner/nope/mine", `{}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown db mine: status %d, want 404", resp.StatusCode)
	}
}

// TestMinerDisabledEndpoints checks the default daemon: status reports the
// miner off, and a manual mining trigger is refused.
func TestMinerDisabledEndpoints(t *testing.T) {
	srv := newTestServer(t, time.Second)

	var status minerStatusResponse
	getJSON(t, srv.URL+"/v1/miner/retail_chain", &status)
	if status.Enabled {
		t.Error("miner should report disabled by default")
	}
	resp, _ := postJSON(t, srv.URL+"/v1/miner/retail_chain/mine", `{}`)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("mine without -miner: status %d, want 409", resp.StatusCode)
	}
	if resp, _ := http.Get(srv.URL + "/v1/miner/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown db status: %d, want 404", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestGenerationCacheAndStats drives /v1/generate twice with an identical
// request against a cache-enabled service and checks the second response is
// served from the cache with identical SQL, and that /v1/stats reports the
// hit.
func TestGenerationCacheAndStats(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, testOpts(genedit.WithModelSeed(42), genedit.WithGenerationCache(64))...)
	srv := httptest.NewServer(newMux(svc, suite, muxConfig{perReq: 30 * time.Second}))
	t.Cleanup(srv.Close)

	var q, db string
	for _, c := range suite.Cases {
		q, db = c.Question, c.DB
		break
	}
	body, _ := json.Marshal(generateRequest{Database: db, Question: q})

	var first, second generateResponse
	for i, out := range []*generateResponse{&first, &second} {
		resp, raw := postJSON(t, srv.URL+"/v1/generate", string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d, body %s", i, resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatal(err)
		}
	}
	if first.Cached {
		t.Error("first request should not be cached")
	}
	if !second.Cached {
		t.Error("second identical request should be served from the cache")
	}
	if first.SQL == "" || first.SQL != second.SQL {
		t.Errorf("cached SQL diverged: %q vs %q", first.SQL, second.SQL)
	}

	sresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if !stats.GenerationCacheEnabled {
		t.Error("stats should report the cache enabled")
	}
	if stats.GenerationCache.Hits != 1 || stats.GenerationCache.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", stats.GenerationCache)
	}
	if stats.GenerationCache.Entries != 1 || stats.GenerationCache.Capacity != 64 {
		t.Errorf("stats fill = %+v, want 1 entry / capacity 64", stats.GenerationCache)
	}
}
