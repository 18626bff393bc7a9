package genedit

import (
	"context"
	"errors"
	"fmt"

	"genedit/internal/eval"
	"genedit/internal/gencache"
	"genedit/internal/generr"
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

// dbFailures is one database's failure accounting (guarded by Service.failMu).
type dbFailures struct {
	stats FailureStats
	// ring retains recent failed records for mining, newest last. Only
	// populated when the miner is enabled.
	ring []*pipeline.Record
}

// noteFailure records one failed generation for db.
func (s *Service) noteFailure(db string, rec *pipeline.Record) {
	f := rec.Failure()
	if f == nil {
		return
	}
	s.failMu.Lock()
	defer s.failMu.Unlock()
	d := s.failureEntry(db)
	switch f.Kind {
	case "syntax":
		d.stats.Syntax++
	default:
		d.stats.Exec++
	}
	if !s.minerOn {
		return
	}
	if len(d.ring) >= failureRingCap {
		copy(d.ring, d.ring[1:])
		d.ring = d.ring[:failureRingCap-1]
	}
	d.ring = append(d.ring, rec)
}

// noteCanceled records one abandoned request for db.
func (s *Service) noteCanceled(db string) {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	s.failureEntry(db).stats.Canceled++
}

// failureEntry returns (creating if needed) db's accounting; callers hold
// failMu.
func (s *Service) failureEntry(db string) *dbFailures {
	if s.failures == nil {
		s.failures = make(map[string]*dbFailures)
	}
	d, ok := s.failures[db]
	if !ok {
		d = &dbFailures{}
		s.failures[db] = d
	}
	return d
}

// FailureStats reports per-database failure counters for every database
// that has recorded at least one failure or cancellation.
func (s *Service) FailureStats() map[string]FailureStats {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	out := make(map[string]FailureStats, len(s.failures))
	for db, d := range s.failures {
		out[db] = d.stats
	}
	return out
}

// minerFor returns (building on first use) the miner for one database. The
// miner's solver shares the service's merge hook, so an approved mined
// candidate is persisted (when durable) and hot-swapped exactly like an SME
// merge — and refuses to splice if another writer committed first.
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
	solver, err := s.Solver(ctx, db, s.minerGolden(db))
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

// minerGolden picks the regression suite gating mined merges for one
// database: its benchmark cases, capped. The cap keeps a mining round's
// cost bounded — every candidate submission replays the suite twice.
func (s *Service) minerGolden(db string) []*Case {
	const cap = 6
	var out []*Case
	for _, c := range s.suite.Cases {
		if c.DB == db {
			out = append(out, c)
			if len(out) == cap {
				break
			}
		}
	}
	return out
}

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
	var drained []*pipeline.Record
	if d, ok := s.failures[db]; ok {
		drained = d.ring
		d.ring = nil
	}
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
// having passed the same regression bar as an SME edit.
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

// errCanceled reports whether err is a cancellation (shared helper for the
// failure counters).
func errCanceled(err error) bool { return errors.Is(err, generr.ErrCanceled) }
