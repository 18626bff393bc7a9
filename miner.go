package genedit

import (
	"context"
	"fmt"

	"genedit/internal/eval"
	"genedit/internal/feedback"
	"genedit/internal/miner"
	"genedit/internal/workload"
)

// Miner re-exports for the serving layer and tools.
type (
	// MinerStats is one database miner's counter snapshot.
	MinerStats = miner.Stats
	// MinerRoundReport summarizes one mining round.
	MinerRoundReport = miner.RoundReport
)

// MinerEditor is the provenance tag auto-mined edits carry through the
// regression gate, merge events and the WAL ("miner", vs "sme" for
// interactive sessions).
const MinerEditor = miner.Editor

// WithMiner enables the background failure miner: MineRound takes a
// database's failed generations the generation cache holds (each its
// question's newest record), clusters them, distills candidate
// instructions, and pushes each candidate through the same regression gate
// → approve → persist → hot-swap path SME edits take. The miner mines the
// cache, so it needs WithGenerationCache; failures of traced requests,
// which bypass the cache, are not mined. The miner is strictly opt-in:
// without this option MineRound errors and serving behavior is unchanged.
func WithMiner() Option { return func(s *Service) { s.minerOn = true } }

// FailureStats counts one database's failed generations by class. Counters
// accumulate over the service's lifetime regardless of whether the miner is
// enabled — they are the serving layer's cheap health signal.
type FailureStats struct {
	// Syntax counts generations whose final SQL failed to parse.
	Syntax uint64 `json:"syntax"`
	// Exec counts generations whose final SQL parsed but failed execution.
	Exec uint64 `json:"exec"`
	// Canceled counts requests abandoned mid-pipeline (caller cancellation
	// or deadline).
	Canceled uint64 `json:"canceled"`
}

// FailureStats reports per-database failure counters for every database
// that has recorded at least one failure or cancellation.
func (s *Service) FailureStats() map[string]FailureStats {
	out := make(map[string]FailureStats)
	for db, t := range s.tenants {
		fs := FailureStats{Syntax: t.syntax.Load(), Exec: t.exec.Load(), Canceled: t.canceled.Load()}
		if fs != (FailureStats{}) {
			out[db] = fs
		}
	}
	return out
}

// minerGoldenCases is the size of the regression suite gating mined merges:
// a database's first benchmark cases. The cap keeps a mining round's cost
// bounded — every candidate submission replays the suite twice.
const minerGoldenCases = 6

// MineRound runs one mining round for a database over its failed records
// in the generation cache (gencache.Cache.Failed): cluster → distill → gate
// → approve. Each entry is its question's newest record, so a question
// whose latest generation succeeded is not mined again. Rejected candidates
// are counted and never merged. Safe to call concurrently with serving;
// merges hot-swap like SME approvals.
//
// The database's miner is built on its first round. Its solver is a view on
// the database's live owner, like every SME solver, so an approved mined
// candidate merges onto the engine being served — whatever SME merges
// landed since the miner was built — and is persisted (when durable) and
// hot-swapped exactly like an SME merge.
func (s *Service) MineRound(ctx context.Context, db string) (MinerRoundReport, error) {
	if !s.minerOn {
		return MinerRoundReport{}, fmt.Errorf("genedit: miner is not enabled (WithMiner)")
	}
	if s.gencache == nil {
		return MinerRoundReport{}, fmt.Errorf("genedit: the miner mines the generation cache, which is disabled (WithGenerationCache)")
	}
	t, live, err := s.liveOf(ctx, db)
	if err != nil {
		return MinerRoundReport{}, err
	}
	t.mu.Lock()
	if t.miner == nil {
		t.miner = miner.New(feedback.NewSolver(live, feedback.NewRecommender(s.model), s.suite.Golden(db, minerGoldenCases)))
	}
	m := t.miner
	t.mu.Unlock()
	return m.Round(ctx, s.gencache.Failed(db))
}

// MinerEnabled reports whether WithMiner configured this service.
func (s *Service) MinerEnabled() bool { return s.minerOn }

// MinerStats reports the per-database miner counters (databases whose miner
// has been exercised at least once).
func (s *Service) MinerStats() map[string]MinerStats {
	out := make(map[string]MinerStats)
	for db, t := range s.tenants {
		t.mu.Lock()
		m := t.miner
		t.mu.Unlock()
		if m != nil {
			out[db] = m.Stats()
		}
	}
	return out
}

// MinerConvergenceRound is one round of the miner convergence experiment:
// execution accuracy over the injected recurring-failure families measured
// before mining, then the round's merge/reject outcome.
type MinerConvergenceRound struct {
	Round int
	// EX is the families' execution accuracy (percent) at the round's start.
	EX float64
	// Merged / Rejected / Unactionable aggregate the round's mining outcome
	// across databases.
	Merged       int
	Rejected     int
	Unactionable int
}

// minerConvergenceCacheSize bounds the convergence exhibit's generation
// cache, the miner's failure signal: far above the injected questions it
// serves, so no failure is evicted before its round mines it.
const minerConvergenceCacheSize = 256

// RunMinerConvergence is the miner's end-to-end exhibit: a service over the
// miner workload (the standard suite plus injected recurring exec-failure
// families whose jargon no knowledge document defines) serves the failing
// questions, mines each database, and re-serves — showing EX over the
// injected families rising as gated auto-knowledge merges, with every merge
// having passed the regression gate SME edits pass. The miner's gate
// replays a database's first six cases; the daemon's SME hub replays its
// first four.
func RunMinerConvergence(seed, modelSeed uint64, rounds int) ([]MinerConvergenceRound, error) {
	suite, injected := workload.NewMinerSuite(seed)
	svc := NewService(suite,
		WithModelSeed(modelSeed),
		WithGenerationCache(minerConvergenceCacheSize),
		WithMiner())
	defer svc.Close()
	ctx := context.Background()

	dbs := map[string]bool{}
	for _, c := range injected {
		dbs[c.DB] = true
	}

	runner := eval.NewRunner(suite.Databases)
	var out []MinerConvergenceRound
	for round := 1; round <= rounds; round++ {
		correct := 0
		for _, c := range injected {
			resp, err := svc.Generate(ctx, Request{Database: c.DB, Question: c.Question, Evidence: c.Evidence})
			if err != nil {
				return nil, fmt.Errorf("round %d case %s: %w", round, c.ID, err)
			}
			ok, err := runner.Evaluate(c, resp.SQL)
			if err != nil {
				return nil, err
			}
			if ok {
				correct++
			}
		}
		r := MinerConvergenceRound{Round: round, EX: 100 * float64(correct) / float64(len(injected))}
		for db := range dbs {
			rep, err := svc.MineRound(ctx, db)
			if err != nil {
				return nil, fmt.Errorf("round %d mine %s: %w", round, db, err)
			}
			r.Merged += rep.Merged
			r.Rejected += rep.Rejected
			r.Unactionable += rep.Unactionable
		}
		out = append(out, r)
	}
	return out, nil
}
