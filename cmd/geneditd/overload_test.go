package main

// Overload-path tests: the HTTP surface of admission control. The service's
// shedding semantics are tested at the library layer (service_overload_test);
// here we assert the daemon's mapping of them — status codes, Retry-After,
// the stale wire fields, the -maxsessions cap — and that a loaded daemon
// shuts down cleanly: in-flight requests drain or shed, the store closes
// after the drain, and no goroutines leak.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genedit"
)

// firstCase returns the suite's first eval case (a known database/question
// pair the simulated model answers deterministically).
func firstCase(suite *genedit.Benchmark) (db, q string) {
	c := suite.Cases[0]
	return c.DB, c.Question
}

func TestDaemonRateLimitReturns429WithRetryAfter(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, testOpts(genedit.WithModelSeed(42),
		// A bucket that effectively never refills: the first request spends
		// the only token, the second must shed.
		genedit.WithAdmission(genedit.AdmissionConfig{RatePerSec: 0.001, Burst: 1}),
	)...)
	defer svc.Close()
	srv := httptest.NewServer(newMux(svc, suite, muxConfig{perReq: 30 * time.Second}))
	defer srv.Close()

	db, q := firstCase(suite)
	body, _ := json.Marshal(generateRequest{Database: db, Question: q})

	resp, _ := postJSON(t, srv.URL+"/v1/generate", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", resp.StatusCode)
	}

	resp, raw := postJSON(t, srv.URL+"/v1/generate", string(body))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429; body %s", resp.StatusCode, raw)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 response lacks a Retry-After header")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive whole-second count", ra)
	}
	var e map[string]string
	if err := json.Unmarshal(raw, &e); err != nil || e["error"] == "" {
		t.Fatalf("429 body %s is not an error document", raw)
	}

	// The shed shows up on the stats surface.
	var st statsResponse
	getJSON(t, srv.URL+"/v1/stats", &st)
	if !st.AdmissionEnabled {
		t.Fatal("stats: admission_enabled = false")
	}
	if st.Admission.RateLimited == 0 {
		t.Fatalf("stats: rate_limited = 0 after a 429; admission = %+v", st.Admission)
	}
}

func TestDaemonServesStaleOnShed(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, testOpts(genedit.WithModelSeed(42),
		genedit.WithGenerationCache(64),
		genedit.WithAdmission(genedit.AdmissionConfig{RatePerSec: 0.001, Burst: 1}),
	)...)
	defer svc.Close()
	srv := httptest.NewServer(newMux(svc, suite, muxConfig{perReq: 30 * time.Second}))
	defer srv.Close()

	db, q := firstCase(suite)
	body, _ := json.Marshal(generateRequest{Database: db, Question: q})

	// Warm the generation cache (spends the only token), then shed: the
	// daemon degrades onto the cached record instead of failing.
	resp, _ := postJSON(t, srv.URL+"/v1/generate", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request: status %d, want 200", resp.StatusCode)
	}
	resp, raw := postJSON(t, srv.URL+"/v1/generate", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shed request: status %d, want 200 (stale serve); body %s", resp.StatusCode, raw)
	}
	var got generateResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if !got.Stale || got.StaleVersion < 1 {
		t.Fatalf("stale serve: stale=%v stale_version=%d, want true/>=1; body %s", got.Stale, got.StaleVersion, raw)
	}
	if got.SQL == "" {
		t.Fatal("stale response carries no SQL")
	}
}

func TestDaemonMaxSessionsCap(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, testOpts(genedit.WithModelSeed(42))...)
	defer svc.Close()
	srv := httptest.NewServer(newMux(svc, suite, muxConfig{perReq: 30 * time.Second, maxSessions: 1}))
	defer srv.Close()

	db, q := firstCase(suite)
	body, _ := json.Marshal(feedbackOpenRequest{Database: db, Question: q})

	resp, raw := postJSON(t, srv.URL+"/v1/feedback/open", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first open: status %d; body %s", resp.StatusCode, raw)
	}
	var first feedbackOpenResponse
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	resp, raw = postJSON(t, srv.URL+"/v1/feedback/open", string(body))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second open with -maxsessions 1: status %d, want 429; body %s", resp.StatusCode, raw)
	}
	// An open refused at the cap costs nothing: on a database no earlier
	// request touched, it gets 429 and no engine is built.
	var fresh string
	for _, name := range svc.Databases() {
		if name != db {
			fresh = name
			break
		}
	}
	freshBody, _ := json.Marshal(feedbackOpenRequest{Database: fresh, Question: q})
	if resp, raw := postJSON(t, srv.URL+"/v1/feedback/open", string(freshBody)); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("open on %s at the cap: status %d, want 429; body %s", fresh, resp.StatusCode, raw)
	}
	if _, built := svc.RetrievalStats()[fresh]; built {
		t.Errorf("an open refused at the cap built the engine of %s", fresh)
	}

	// Abandoning the first session frees its place.
	del := func() int {
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/feedback/"+first.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(); code != http.StatusOK {
		t.Fatalf("delete of the open session: status %d, want 200", code)
	}
	if code := del(); code != http.StatusNotFound {
		t.Fatalf("second delete of the session: status %d, want 404", code)
	}
	resp, raw = postJSON(t, srv.URL+"/v1/feedback/open", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open after the delete: status %d, want 200; body %s", resp.StatusCode, raw)
	}
}

// TestDaemonGracefulShutdownUnderLoad closes the server while concurrent
// generate traffic is queued inside admission control, mirroring the
// daemon's shutdown order (drain HTTP, then close the service and its
// store). Every in-flight request must complete with a well-defined status
// — drained (200) or shed (429/503/504) — the durable store must close
// cleanly after the drain and survive a reopen, and the goroutine count
// must return to its pre-load baseline.
func TestDaemonGracefulShutdownUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()

	dir := t.TempDir()
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite, testOpts(genedit.WithModelSeed(42),
		genedit.WithStorePath(dir),
		genedit.WithGenerationCache(64),
		// A narrow execution gate so shutdown really does catch requests
		// waiting in the admission queue, not just mid-pipeline.
		genedit.WithAdmission(genedit.AdmissionConfig{
			RatePerSec:    500,
			Burst:         100,
			MaxConcurrent: 2,
			MaxQueue:      8,
		}),
	)...)
	srv := httptest.NewServer(newMux(svc, suite, muxConfig{perReq: 5 * time.Second}))

	var ok200, shed, other atomic.Int64
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				c := suite.Cases[(w*31+i)%len(suite.Cases)]
				body, _ := json.Marshal(generateRequest{Database: c.DB, Question: c.Question})
				resp, err := http.Post(srv.URL+"/v1/generate", "application/json", bytes.NewReader(body))
				if err != nil {
					// The listener is gone: shutdown has begun and this
					// worker's job is done.
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
					shed.Add(1)
				default:
					other.Add(1)
				}
			}
		}(w)
	}

	// Let the queue fill, then shut down mid-flight. httptest's Close waits
	// for active handlers exactly like http.Server.Shutdown: queued
	// requests either get a slot and drain or shed on their deadline.
	time.Sleep(150 * time.Millisecond)
	srv.Close()
	wg.Wait()

	// Daemon order: the store closes only after the HTTP drain.
	if err := svc.Close(); err != nil {
		t.Fatalf("service close after drain: %v", err)
	}

	if n := other.Load(); n > 0 {
		t.Fatalf("%d requests finished with an unexpected status (not 200/429/503/504)", n)
	}
	if ok200.Load() == 0 {
		t.Fatal("no request ever succeeded under load")
	}
	st := svc.AdmissionStats()
	if st.MaxQueueDepth > 8 {
		t.Fatalf("queue depth %d exceeded the configured bound 8", st.MaxQueueDepth)
	}
	t.Logf("drained: ok=%d shed=%d admitted=%d maxdepth=%d",
		ok200.Load(), shed.Load(), st.Admitted, st.MaxQueueDepth)

	// The drained store reopens and serves: nothing was torn mid-write.
	rec := genedit.NewService(genedit.NewBenchmark(1), testOpts(genedit.WithModelSeed(42),
		genedit.WithStorePath(dir))...)
	db, q := firstCase(suite)
	if _, err := rec.Generate(context.Background(), genedit.Request{Database: db, Question: q}); err != nil {
		t.Fatalf("generate after reopen: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("closing reopened store: %v", err)
	}

	// No goroutine leaks: workers, queue waiters and store writers are all
	// gone once the dust settles.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d > baseline %d+3\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
