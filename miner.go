package genedit

import (
	"context"
	"fmt"

	"genedit/internal/eval"
	"genedit/internal/gencache"
	"genedit/internal/miner"
	"genedit/internal/pipeline"
	"genedit/internal/task"
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

// minerState is the per-database miner held in the Service registry
// (declared here so service.go does not import internal/miner).
type minerState = miner.Miner

// WithMiner enables the background failure miner: per database, failed
// generations are retained (a bounded ring plus whatever the generation
// cache holds) and MineRound clusters them, distills candidate
// instructions, and pushes each candidate through the same regression
// gate → approve → persist → hot-swap path SME edits take. The miner is
// strictly opt-in: without this option the service never retains failed
// records beyond the cache and MineRound errors, so default serving
// behavior is unchanged.
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

// failureRingCap bounds the per-database retained-failure ring the miner
// drains; beyond it the oldest failures are dropped (the generation cache
// usually still holds them).
const failureRingCap = 256

// noteFailure records one failed generation of a database: its syntax or
// exec count and, with the miner on, its record in the database's ring.
func (s *Service) noteFailure(db string, d *dbMetrics, resp *Response) {
	if resp.Failure.Kind == "syntax" {
		d.syntax.Add(1)
	} else {
		d.exec.Add(1)
	}
	if !s.minerOn {
		return
	}
	s.failMu.Lock()
	defer s.failMu.Unlock()
	ring := s.failed[db]
	if len(ring) >= failureRingCap {
		copy(ring, ring[1:])
		ring = ring[:failureRingCap-1]
	}
	if s.failed == nil {
		s.failed = make(map[string][]*pipeline.Record)
	}
	s.failed[db] = append(ring, resp.Record)
}

// FailureStats reports per-database failure counters for every database
// that has recorded at least one failure or cancellation.
func (s *Service) FailureStats() map[string]FailureStats {
	out := make(map[string]FailureStats)
	s.smetrics.perDB.Range(func(db, v any) bool {
		d := v.(*dbMetrics)
		fs := FailureStats{Syntax: d.syntax.Load(), Exec: d.exec.Load(), Canceled: d.canceled.Load()}
		if fs != (FailureStats{}) {
			out[db.(string)] = fs
		}
		return true
	})
	return out
}

// minerFor returns (building on first use) the miner for one database. The
// miner's solver is a view on the database's live owner, like every SME
// solver, so an approved mined candidate merges onto the engine being
// served — whatever SME merges landed since the miner was built — and is
// persisted (when durable) and hot-swapped exactly like an SME merge.
func (s *Service) minerFor(ctx context.Context, db string) (*miner.Miner, error) {
	if !s.minerOn {
		return nil, fmt.Errorf("genedit: miner is not enabled (WithMiner)")
	}
	s.failMu.Lock()
	m, ok := s.miners[db]
	s.failMu.Unlock()
	if ok {
		return m, nil
	}
	solver, err := s.Solver(ctx, db, s.suite.Golden(db, minerGoldenCases))
	if err != nil {
		return nil, err
	}
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if m, ok := s.miners[db]; ok {
		return m, nil
	}
	if s.miners == nil {
		s.miners = make(map[string]*miner.Miner)
	}
	m = miner.New(solver)
	s.miners[db] = m
	return m, nil
}

// minerGoldenCases is the size of the regression suite gating mined merges:
// a database's first benchmark cases. The cap keeps a mining round's cost
// bounded — every candidate submission replays the suite twice.
const minerGoldenCases = 6

// MineRound runs one mining round for a database: drain the retained
// failure ring, merge in the generation cache's retained failures for that
// database (deduplicated by question), then cluster → distill → gate →
// approve. Rejected candidates are counted and never merged. Safe to call
// concurrently with serving; merges hot-swap like SME approvals.
func (s *Service) MineRound(ctx context.Context, db string) (MinerRoundReport, error) {
	m, err := s.minerFor(ctx, db)
	if err != nil {
		return MinerRoundReport{}, err
	}

	s.failMu.Lock()
	drained := s.failed[db]
	delete(s.failed, db)
	s.failMu.Unlock()

	seen := make(map[string]bool, len(drained))
	for _, rec := range drained {
		seen[task.QuestionKey(rec.Question)] = true
	}
	if s.gencache != nil {
		for _, rec := range s.gencache.FailedRecords() {
			if rec.Context.DB != db {
				continue
			}
			if k := task.QuestionKey(rec.Question); !seen[k] {
				seen[k] = true
				drained = append(drained, rec)
			}
		}
	}

	// Staleness filter: retained failures are not version-tagged, and a
	// failure observed under an older knowledge version may already be fixed
	// by a merge. When the cache holds a successful record for the question
	// at the CURRENT version, the gap is closed — mining it again would only
	// distill pointless refinements.
	failed := drained
	if s.gencache != nil {
		if engine, eerr := s.Engine(ctx, db); eerr == nil {
			version := engine.KnowledgeSet().Version()
			failed = failed[:0]
			for _, rec := range drained {
				cur, ok := s.gencache.Peek(gencache.RequestKey{
					Database: db, Version: version, Question: rec.Question, Evidence: rec.Evidence,
				})
				if ok && cur.OK {
					continue
				}
				failed = append(failed, rec)
			}
		}
	}
	return m.Round(ctx, failed)
}

// MinerEnabled reports whether WithMiner configured this service.
func (s *Service) MinerEnabled() bool { return s.minerOn }

// MinerStats reports the per-database miner counters (databases whose miner
// has been exercised at least once).
func (s *Service) MinerStats() map[string]MinerStats {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	out := make(map[string]MinerStats, len(s.miners))
	for db, m := range s.miners {
		out[db] = m.Stats()
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
		WithGenerationCache(failureRingCap),
		WithMiner())
	defer svc.Close()
	ctx := context.Background()

	dbs := map[string]bool{}
	for _, c := range injected {
		dbs[c.DB] = true
	}

	var out []MinerConvergenceRound
	for round := 1; round <= rounds; round++ {
		correct := 0
		for _, c := range injected {
			resp, err := svc.Generate(ctx, Request{Database: c.DB, Question: c.Question, Evidence: c.Evidence})
			if err != nil {
				return nil, fmt.Errorf("round %d case %s: %w", round, c.ID, err)
			}
			if !resp.OK {
				continue
			}
			exec, err := suite.Executor(c.DB)
			if err != nil {
				return nil, err
			}
			gold, err := exec.Query(c.GoldSQL)
			if err != nil {
				return nil, fmt.Errorf("case %s gold: %w", c.ID, err)
			}
			if eval.ResultsEqual(gold, resp.Record.Result) {
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
