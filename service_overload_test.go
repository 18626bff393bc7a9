package genedit_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"genedit"
	"genedit/internal/generr"
)

// TestAdmissionRateLimit drives one tenant past its token budget and
// asserts the typed 429-class error with a Retry-After hint.
func TestAdmissionRateLimit(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite,
		genedit.WithModelSeed(42),
		genedit.WithAdmission(genedit.AdmissionConfig{RatePerSec: 0.001, Burst: 2}),
	)
	defer svc.Close()
	// Buckets are per-tenant: all three requests must hit one database.
	req := testRequests(t, suite, 1)[0]

	for i := 0; i < 2; i++ {
		if _, err := svc.Generate(context.Background(), req); err != nil {
			t.Fatalf("request %d within burst: %v", i, err)
		}
	}
	_, err := svc.Generate(context.Background(), req)
	if !errors.Is(err, genedit.ErrRateLimited) {
		t.Fatalf("want ErrRateLimited, got %v", err)
	}
	if hint, ok := generr.RetryAfterHint(err); !ok || hint <= 0 {
		t.Fatalf("want positive Retry-After hint, got %v ok=%v", hint, ok)
	}
	st := svc.AdmissionStats()
	if st.Admitted != 2 || st.RateLimited != 1 {
		t.Fatalf("admission stats = %+v", st)
	}
	if !svc.AdmissionEnabled() {
		t.Fatal("AdmissionEnabled() = false with WithAdmission configured")
	}
}

// TestAdmissionStaleServeOnShed: a shed request whose question has a
// completed cached answer degrades onto the stale copy instead of failing.
func TestAdmissionStaleServeOnShed(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite,
		genedit.WithModelSeed(42),
		genedit.WithGenerationCache(64),
		genedit.WithAdmission(genedit.AdmissionConfig{RatePerSec: 0.001, Burst: 1}),
	)
	defer svc.Close()
	req := testRequests(t, suite, 1)[0]

	fresh, err := svc.Generate(context.Background(), req)
	if err != nil {
		t.Fatalf("warming request: %v", err)
	}
	if fresh.Stale {
		t.Fatal("warming request marked stale")
	}

	// Budget is spent: the identical question is shed but served stale.
	stale, err := svc.Generate(context.Background(), req)
	if err != nil {
		t.Fatalf("shed request with warm cache: %v", err)
	}
	if !stale.Stale || !stale.Cached {
		t.Fatalf("want stale cached response, got stale=%v cached=%v", stale.Stale, stale.Cached)
	}
	if stale.SQL != fresh.SQL {
		t.Fatalf("stale SQL %q != fresh SQL %q", stale.SQL, fresh.SQL)
	}
	if cs := svc.GenerationCacheStats(); cs.StaleServed != 1 {
		t.Fatalf("StaleServed = %d, want 1", cs.StaleServed)
	}
	if st := svc.AdmissionStats(); st.RateLimited != 1 {
		t.Fatalf("stale serve must still count as rate-limited: %+v", st)
	}

	// A cold question has nothing stale to fall back on: typed error.
	cold := req
	cold.Question = req.Question + " (never asked)"
	if _, err := svc.Generate(context.Background(), cold); !errors.Is(err, genedit.ErrRateLimited) {
		t.Fatalf("cold shed: want ErrRateLimited, got %v", err)
	}
}

// TestAdmissionStaleServeDisabled asserts DisableStaleServe turns shed
// requests into hard errors even with a warm cache.
func TestAdmissionStaleServeDisabled(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite,
		genedit.WithModelSeed(42),
		genedit.WithGenerationCache(64),
		genedit.WithAdmission(genedit.AdmissionConfig{
			RatePerSec: 0.001, Burst: 1, DisableStaleServe: true,
		}),
	)
	defer svc.Close()
	req := testRequests(t, suite, 1)[0]
	if _, err := svc.Generate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Generate(context.Background(), req); !errors.Is(err, genedit.ErrRateLimited) {
		t.Fatalf("want ErrRateLimited with stale serve disabled, got %v", err)
	}
}

// TestAdmissionOverloadParity floods a tightly provisioned service from
// many goroutines (run under -race in CI) and asserts the overload
// contract: every request resolves promptly to either a correct answer —
// bit-identical SQL to an unthrottled reference service — or a typed
// overload error. Nothing hangs, nothing is silently dropped.
func TestAdmissionOverloadParity(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	reqs := testRequests(t, suite, 8)

	// Reference answers from an unthrottled service with the same seed.
	ref := genedit.NewService(suite, genedit.WithModelSeed(42))
	want := make(map[string]string, len(reqs))
	for _, r := range reqs {
		resp, err := ref.Generate(context.Background(), r)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		want[r.Question] = resp.SQL
	}

	svc := genedit.NewService(suite,
		genedit.WithModelSeed(42),
		genedit.WithGenerationCache(64),
		genedit.WithAdmission(genedit.AdmissionConfig{
			RatePerSec:        20,
			Burst:             4,
			MaxConcurrent:     2,
			MaxQueue:          2,
			DisableStaleServe: true, // successes must be live answers for parity
		}),
	)
	defer svc.Close()

	const goroutines = 16
	const perG = 6
	var (
		mu        sync.Mutex
		successes int
		shed      int
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				req := reqs[(g+i)%len(reqs)]
				resp, err := svc.Generate(context.Background(), req)
				switch {
				case err == nil:
					if resp.SQL != want[req.Question] {
						t.Errorf("divergent SQL under overload for %q", req.Question)
					}
					mu.Lock()
					successes++
					mu.Unlock()
				case errors.Is(err, genedit.ErrRateLimited), errors.Is(err, genedit.ErrOverloaded):
					mu.Lock()
					shed++
					mu.Unlock()
				default:
					t.Errorf("unexpected error class: %v", err)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	total := goroutines * perG
	if successes+shed != total {
		t.Fatalf("accounting: %d successes + %d shed != %d requests", successes, shed, total)
	}
	if shed == 0 {
		t.Fatal("tightly provisioned service shed nothing: admission control inert")
	}
	if successes == 0 {
		t.Fatal("service shed everything: token budget should admit some load")
	}
	st := svc.AdmissionStats()
	if st.RateLimited == 0 {
		t.Fatalf("the token budget was never exhausted: no request was rate-limited (stats %+v)", st)
	}
	if int(st.Admitted) != successes {
		t.Fatalf("Admitted=%d != successes=%d", st.Admitted, successes)
	}
	if got := int(st.RateLimited + st.ShedQueueFull + st.ShedDeadline); got != shed {
		t.Fatalf("shed breakdown %d != observed shed %d (stats %+v)", got, shed, st)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("gauges did not drain: %+v", st)
	}
}

// TestServiceCloseShedsAdmission: Close refuses subsequent work with the
// overload taxonomy instead of hanging or panicking.
func TestServiceCloseShedsAdmission(t *testing.T) {
	suite := genedit.NewBenchmark(1)
	svc := genedit.NewService(suite,
		genedit.WithModelSeed(42),
		genedit.WithAdmission(genedit.AdmissionConfig{RatePerSec: 100}),
	)
	req := testRequests(t, suite, 1)[0]
	if _, err := svc.Generate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Generate(context.Background(), req); !errors.Is(err, genedit.ErrOverloaded) {
		t.Fatalf("post-Close Generate: want ErrOverloaded, got %v", err)
	}
}
