// Package miner implements the background failure miner: the self-improving
// half of the serving loop. It scans the failed generation records the
// versioned cache retains (failures are cached by contract — deterministic
// for a fixed knowledge version), clusters recurring failures by failure
// type and statement shape, distills each recurring cluster into candidate
// clarification instructions, and submits them through the same
// staging → regression-gate → approve path SME edits take. Nothing the
// miner proposes reaches the live knowledge set without passing the golden
// replay bar; rejected candidates are counted and never merged.
//
// The miner never writes SQL fixes. Its theory of failure is the paper's:
// recurring errors are knowledge gaps — undefined jargon, unclarified
// intent — so the distilled artifact is knowledge (an instruction defining
// the terms a failing question uses, restating the question it keeps
// failing on), and the regression gate decides whether that knowledge
// actually helps.
package miner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"genedit/internal/decompose"
	"genedit/internal/feedback"
	"genedit/internal/knowledge"
	"genedit/internal/pipeline"
)

// Mining limits, one setting for every database.
const (
	// minRecurrence is the cluster size below which a failure pattern is
	// considered noise rather than a recurring gap.
	minRecurrence = 2
	// maxCandidatesPerRound bounds how many candidate changes one round may
	// submit (each submission replays the golden suite, so rounds are
	// metered).
	maxCandidatesPerRound = 4
	// maxRefinements bounds how often the miner re-submits a refined
	// instruction for a question that stays failing although already
	// covered by mined knowledge.
	maxRefinements = 2
)

// Editor is the provenance tag mined edits carry through staging, merge
// events and the WAL — the audit trail's way to tell auto-mined knowledge
// from SME edits.
const Editor = "miner"

// Stats is a point-in-time counter snapshot for one database's miner.
type Stats struct {
	// Rounds counts completed mining rounds.
	Rounds int `json:"rounds"`
	// Scanned counts failed records examined across all rounds.
	Scanned int `json:"scanned"`
	// Clusters counts recurring clusters (size >= minRecurrence) seen.
	Clusters int `json:"clusters"`
	// Candidates counts candidate changes submitted to the regression gate.
	Candidates int `json:"candidates"`
	// Merged counts candidates that passed the gate and were approved.
	Merged int `json:"merged"`
	// Rejected counts candidates the regression gate refused.
	Rejected int `json:"rejected"`
	// Unactionable counts clusters the miner declined to distill (syntax
	// failures, singletons, exhausted refinements).
	Unactionable int `json:"unactionable"`
}

// Cluster is one group of failed records sharing a failure type and
// statement shape.
type Cluster struct {
	// Key is the grouping key: failure kind, sorted clause-shape keys, and
	// the referenced tables.
	Key string
	// Kind is the shared failure classification ("exec" or "syntax").
	Kind string
	// Questions are the distinct failing questions, sorted.
	Questions []string
	// Records holds one representative failed record per question.
	Records []*pipeline.Record
}

// Miner mines one database's failures. It is safe for concurrent use; a
// round holds the mutex only around state updates, not around the gated
// submission (which replays the golden suite).
type Miner struct {
	solver *feedback.Solver

	mu sync.Mutex
	// rejected maps candidate feedback IDs the gate refused, so one bad
	// candidate is not resubmitted (and re-replayed) every round.
	rejected map[string]bool
	// refined counts refinement submissions per question key.
	refined map[string]int
	stats   Stats
}

// New builds a miner over one database's feedback solver. The solver owns
// the live engine and the regression gate; the miner is strictly a client
// of that path — it holds no write access to the knowledge set.
func New(solver *feedback.Solver) *Miner {
	return &Miner{
		solver:   solver,
		rejected: make(map[string]bool),
		refined:  make(map[string]int),
	}
}

// Stats returns the miner's counters.
func (m *Miner) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// RoundReport summarizes one mining round.
type RoundReport struct {
	Scanned      int `json:"scanned"`
	Clusters     int `json:"clusters"`
	Submitted    int `json:"submitted"`
	Merged       int `json:"merged"`
	Rejected     int `json:"rejected"`
	Unactionable int `json:"unactionable"`
	// MergedIDs lists the feedback IDs merged this round.
	MergedIDs []string `json:"merged_ids,omitempty"`
}

// Round runs one mining pass over the supplied failed records: cluster,
// distill, submit through the regression gate, approve what passes. The
// records are typically drained from the serving layer's failure ring plus
// the generation cache's retained failures.
func (m *Miner) Round(ctx context.Context, failed []*pipeline.Record) (RoundReport, error) {
	var rep RoundReport
	rep.Scanned = len(failed)

	clusters := ClusterFailures(failed)
	minedIDs := minedFeedbackIDs(m.solver.Engine().KnowledgeSet())

	var candidates []candidate
	for _, cl := range clusters {
		if len(cl.Records) < minRecurrence {
			rep.Unactionable++
			continue
		}
		rep.Clusters++
		if cl.Kind != "exec" {
			// Syntax failures are generator slips, not knowledge gaps; no
			// instruction the miner writes changes how the model spells SQL.
			rep.Unactionable++
			continue
		}
		cand, ok := m.distill(ctx, cl, minedIDs)
		if !ok {
			rep.Unactionable++
			continue
		}
		candidates = append(candidates, cand)
	}
	if len(candidates) > maxCandidatesPerRound {
		candidates = candidates[:maxCandidatesPerRound]
	}

	for _, cand := range candidates {
		res, err := m.solver.SubmitCandidate(ctx, cand.feedbackID, Editor, cand.edits)
		if err != nil {
			return rep, fmt.Errorf("miner candidate %s: %w", cand.feedbackID, err)
		}
		rep.Submitted++
		if !res.Passed {
			rep.Rejected++
			m.mu.Lock()
			m.rejected[cand.feedbackID] = true
			m.mu.Unlock()
			continue
		}
		if err := m.solver.Approve(res.Pending, Editor); err != nil {
			return rep, fmt.Errorf("miner approve %s: %w", cand.feedbackID, err)
		}
		rep.Merged++
		rep.MergedIDs = append(rep.MergedIDs, cand.feedbackID)
		m.mu.Lock()
		for _, q := range cand.refinedQuestions {
			m.refined[q]++
		}
		m.mu.Unlock()
	}

	m.mu.Lock()
	m.stats.Rounds++
	m.stats.Scanned += rep.Scanned
	m.stats.Clusters += rep.Clusters
	m.stats.Candidates += rep.Submitted
	m.stats.Merged += rep.Merged
	m.stats.Rejected += rep.Rejected
	m.stats.Unactionable += rep.Unactionable
	m.mu.Unlock()
	return rep, nil
}

// ClusterFailures groups failed records by failure kind and statement
// shape. Shape is the set of clause keys of the final SQL's decomposition
// plus the tables it references — two failures of the same template land in
// one cluster even when literals differ; unparsable SQL gets its own shape.
// One representative record is kept per distinct question.
func ClusterFailures(failed []*pipeline.Record) []*Cluster {
	byKey := make(map[string]*Cluster)
	var order []string
	for _, rec := range failed {
		if rec == nil || rec.OK {
			continue
		}
		key, kind := clusterKey(rec)
		cl, ok := byKey[key]
		if !ok {
			cl = &Cluster{Key: key, Kind: kind}
			byKey[key] = cl
			order = append(order, key)
		}
		dup := false
		for _, q := range cl.Questions {
			if q == rec.Question {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		cl.Questions = append(cl.Questions, rec.Question)
		cl.Records = append(cl.Records, rec)
	}
	out := make([]*Cluster, 0, len(byKey))
	for _, k := range order {
		cl := byKey[k]
		sort.Strings(cl.Questions)
		out = append(out, cl)
	}
	// Largest clusters first: the most recurrent gap is the most valuable
	// candidate under the per-round submission budget.
	sort.SliceStable(out, func(i, j int) bool { return len(out[i].Records) > len(out[j].Records) })
	return out
}

// clusterKey derives the grouping key and failure kind for one failed
// record from its final attempt and the decomposition of its final SQL.
func clusterKey(rec *pipeline.Record) (key, kind string) {
	kind = "exec"
	if n := len(rec.Attempts); n > 0 {
		kind = rec.Attempts[n-1].Kind
	}
	shape := []string{"unparsable"}
	tables := []string{}
	if frags, err := decompose.DecomposeSQL(rec.FinalSQL); err == nil {
		shape = shape[:0]
		seen := map[string]bool{}
		for _, f := range frags {
			k := f.Key()
			if !seen[k] {
				seen[k] = true
				shape = append(shape, k)
			}
			if f.Clause == decompose.ClauseFrom {
				for _, t := range tableTokens(f.SQL) {
					tables = append(tables, t)
				}
			}
		}
		sort.Strings(shape)
		sort.Strings(tables)
	}
	return kind + "|" + strings.Join(shape, ",") + "|" + strings.Join(tables, ","), kind
}

// tableTokens extracts the schema-ish identifiers (ALL_CAPS words) from a
// FROM clause — the schema-element component of the cluster key.
func tableTokens(fromSQL string) []string {
	var out []string
	for _, tok := range strings.FieldsFunc(fromSQL, func(r rune) bool {
		return !(r == '_' || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9'))
	}) {
		if len(tok) >= 3 && tok == strings.ToUpper(tok) && tok != "JOIN" && tok != "ON" {
			out = append(out, tok)
		}
	}
	return out
}

// candidate is one distilled, ready-to-submit change.
type candidate struct {
	feedbackID string
	edits      []knowledge.Edit
	// refinedQuestions lists questions whose refinement counter should
	// advance if this candidate merges.
	refinedQuestions []string
}

// distill converts one recurring exec-failure cluster into a candidate
// change: per failing question, an instruction restating the question and
// defining the acronym jargon it uses. Questions already covered by merged
// mined knowledge are re-probed against the live engine — failure records
// are not knowledge-version-tagged, so the miner confirms the gap is still
// open before spending a refinement (a bounded number of them; beyond that
// the cluster is unactionable). The candidate's feedback ID is a content
// hash, so the same gap re-mined after a restart dedupes against the WAL
// history.
func (m *Miner) distill(ctx context.Context, cl *Cluster, minedIDs map[string]bool) (candidate, bool) {
	engine := m.solver.Engine()
	kset := engine.KnowledgeSet()

	var edits []knowledge.Edit
	var refinedQuestions []string
	for i, q := range cl.Questions {
		terms := acronymTerms(q)
		round := 0
		if covered(kset, q, terms) {
			probe, err := engine.GenerateContext(ctx, q, cl.Records[i].Evidence)
			if err != nil || probe.OK {
				continue // fixed at the current version (or unprobeable): no refinement
			}
			m.mu.Lock()
			round = m.refined[q] + 1
			m.mu.Unlock()
			if round > maxRefinements {
				continue
			}
			refinedQuestions = append(refinedQuestions, q)
		}
		edits = append(edits, instructionEdit(q, terms, cl, round))
	}
	if len(edits) == 0 {
		return candidate{}, false
	}

	id := candidateID(cl, edits)
	if minedIDs[id] {
		return candidate{}, false // already merged (possibly in a prior process life)
	}
	m.mu.Lock()
	rejected := m.rejected[id]
	m.mu.Unlock()
	if rejected {
		return candidate{}, false
	}
	return candidate{feedbackID: id, edits: edits, refinedQuestions: refinedQuestions}, true
}

// instructionEdit builds the insert-instruction edit for one failing
// question. Round 0 is the initial clarification; later rounds extend the
// text so a refinement is a genuinely different clarification, not a
// retry of the same words.
func instructionEdit(question string, terms []string, cl *Cluster, round int) knowledge.Edit {
	var b strings.Builder
	fmt.Fprintf(&b, "For the question %q: answer it directly against the referenced tables.", question)
	if len(terms) > 0 {
		fmt.Fprintf(&b, " The terms %s are internal jargon for computations over existing columns only — never invent a column named after them.",
			strings.Join(terms, ", "))
	}
	if round > 0 {
		fmt.Fprintf(&b, " (refinement %d: the previous clarification of this question was insufficient; restated with the failing shape %s)",
			round, cl.Key)
	}
	return knowledge.Edit{
		Op:   knowledge.EditInsert,
		Kind: knowledge.InstructionEntity,
		Instruction: &knowledge.Instruction{
			ID:    "mined-" + shortHash(question+"|"+fmt.Sprint(round)),
			Text:  b.String(),
			Terms: terms,
		},
		Rationale: fmt.Sprintf("mined from %d recurring %s failures sharing shape %s",
			len(cl.Records), cl.Kind, cl.Key),
	}
}

// covered reports whether mined knowledge already addresses this question:
// a miner-authored instruction that defines one of its terms or restates
// the question.
func covered(kset *knowledge.Set, question string, terms []string) bool {
	lowerQ := strings.ToLower(question)
	for _, ins := range kset.Instructions() {
		if ins.Provenance.Editor != Editor {
			continue
		}
		for _, t := range ins.Terms {
			for _, want := range terms {
				if strings.EqualFold(t, want) {
					return true
				}
			}
		}
		if strings.Contains(strings.ToLower(ins.Text), lowerQ) {
			return true
		}
	}
	return false
}

// acronymTerms extracts the undefined-jargon candidates from a question:
// tokens of 2+ uppercase letters (the shape enterprise acronyms take —
// QoQFP-style mixed case included via its uppercase majority).
func acronymTerms(question string) []string {
	seen := map[string]bool{}
	var out []string
	for _, tok := range strings.Fields(question) {
		tok = strings.Trim(tok, ".,;:?!()'\"")
		upper := 0
		for _, r := range tok {
			if r >= 'A' && r <= 'Z' {
				upper++
			}
		}
		if len(tok) >= 2 && upper*2 > len(tok) && !seen[tok] {
			seen[tok] = true
			out = append(out, tok)
		}
	}
	return out
}

// minedFeedbackIDs collects the feedback IDs of previously merged mined
// changes from the set's audit history — the restart-safe dedupe source,
// since history is exactly what the WAL persists and replays.
func minedFeedbackIDs(kset *knowledge.Set) map[string]bool {
	out := map[string]bool{}
	for _, ev := range kset.History() {
		if ev.Editor == Editor && ev.FeedbackID != "" {
			out[ev.FeedbackID] = true
		}
	}
	return out
}

// candidateID is the deterministic feedback ID for a distilled candidate:
// a hash of the cluster key and the edited instruction IDs.
func candidateID(cl *Cluster, edits []knowledge.Edit) string {
	var b strings.Builder
	b.WriteString(cl.Key)
	for _, e := range edits {
		if e.Instruction != nil {
			b.WriteByte('|')
			b.WriteString(e.Instruction.ID)
		}
	}
	return "miner-" + shortHash(b.String())
}

func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:6])
}
