// Package pipeline implements GenEdit's SQL generation module: the
// compounding operator pipeline of Fig. 1 (inference operators 1-9) over a
// company-specific knowledge set, with the ablation switches of Table 2.
package pipeline

import (
	"context"
	"fmt"
	"strings"

	"genedit/internal/decompose"
	"genedit/internal/embed"
	"genedit/internal/generr"
	"genedit/internal/knowledge"
	"genedit/internal/llm"
	"genedit/internal/schema"
	"genedit/internal/sqldb"
	"genedit/internal/sqlexec"
	"genedit/internal/sqlparse"
)

// Config controls pipeline behaviour. The Disable* switches implement the
// ablations of Table 2 plus the extra design-choice ablations DESIGN.md
// calls out.
type Config struct {
	// MaxAttempts is k, the regeneration budget (§3: "up to k times",
	// k=3 in Fig. 1).
	MaxAttempts int
	// ClauseEditCorrection switches the self-correction operator (8-9) from
	// full regeneration to clause-level editing: the failing SQL is
	// decomposed into fragments and the model proposes targeted clause
	// edits (llm.ClauseEditor), falling back to RepairSQL when the model
	// lacks the capability, the SQL does not parse (syntax failures), or no
	// edit is proposed. Off by default: the edit path changes the SQL the
	// correction loop produces, so it is opt-in to keep the baseline EX
	// tables bit-identical.
	ClauseEditCorrection bool

	// Table 2 ablations.
	DisableSchemaLinking bool
	DisableInstructions  bool
	DisableExamples      bool
	DisablePseudoSQL     bool
	DisableDecomposition bool

	// Additional design-choice ablations.
	DisableContextExpansion bool
	DisablePlanning         bool
}

// Retrieval fan-outs of the example and instruction selectors: how many
// candidates the global similarity search pulls from the index before intent
// filtering and re-ranking (the paper configuration).
const (
	DefaultExampleFanout     = 24
	DefaultInstructionFanout = 16
)

// retrieval is how an engine's selectors search and cut their indexes: the
// fan-outs of the global search, how many examples and instructions a
// request keeps, and the weight context expansion (§3.1.1) gives
// example-context similarity when re-ranking instructions. Every engine New
// builds uses defaultRetrieval; tests reach other settings through
// newEngine.
type retrieval struct {
	exFanout, insFanout          int
	topExamples, topInstructions int
	expansionWeight              float64
}

var defaultRetrieval = retrieval{
	exFanout:        DefaultExampleFanout,
	insFanout:       DefaultInstructionFanout,
	topExamples:     12,
	topInstructions: 6,
	expansionWeight: 0.45,
}

// DefaultConfig returns the production configuration.
func DefaultConfig() Config {
	return Config{MaxAttempts: 3}
}

// Attempt records one generation attempt and its execution feedback.
type Attempt struct {
	SQL string
	// Kind classifies the outcome: "ok", "empty", "syntax", "exec".
	Kind string
	// Err is the execution error message, if any.
	Err string
	// Rows is the result cardinality on success.
	Rows int
}

// Record is the full trace of one generation: the feedback module's input
// and the source for rendering the Fig. 2 prompt.
type Record struct {
	Question     string
	Reformulated string
	Evidence     string
	IntentIDs    []string
	IntentNames  []string
	Context      llm.Context
	Plan         llm.Plan
	Attempts     []Attempt
	FinalSQL     string
	// OK reports whether the final SQL executed without error.
	OK bool
	// Result is the final execution result when OK.
	Result *sqlexec.Result
}

// Prompt renders the generation prompt for this record (Fig. 2 structure).
func (r *Record) Prompt() string {
	ctx := r.Context
	return llm.RenderPrompt(&ctx, &r.Plan)
}

// Engine is the GenEdit generation pipeline bound to one database and one
// knowledge set.
//
// Concurrency contract: an Engine is safe for concurrent GenerateContext
// calls. All per-engine state — the knowledge set, schema profile, retrieval
// indices and precomputed vectors — is read-only after construction; the
// executor synchronizes its statement cache internally; and the model is
// required to be concurrency-safe (the simulated model is a pure function of
// its seed). Mutating operations (WithKnowledge) return a new Engine rather
// than changing a shared one, so a served engine is immutable for its
// lifetime.
type Engine struct {
	model llm.Model
	kset  *knowledge.Set
	db    *sqldb.Database
	sch   *schema.Schema
	exec  *sqlexec.Executor
	cfg   Config
	ret   retrieval

	exIndex  *embed.Index
	insIndex *embed.Index
	// intentOpts is the classification option list, derived from the
	// knowledge set once at index-build time (the set is immutable while
	// served, and Intents() lists it anew on every call).
	intentOpts []llm.IntentOption
	// The retrieval tables (retrieval.go): everything operators 3-4 read
	// about a knowledge item, laid out by the item's position in its
	// retrieval index. Read-only after buildIndices.
	byIntent map[string]*intentPostings
	ex       exampleTable
	ins      instructionTable
	// fullExs are the deduplicated full-query example candidates (the
	// "w/o Decomposition" ablation path), fullVecs their ranking vectors.
	fullExs  []*fullExCand
	fullVecs []embed.Embedded
}

// New builds an engine. The knowledge set is indexed for retrieval once.
func New(model llm.Model, kset *knowledge.Set, db *sqldb.Database, cfg Config) *Engine {
	return newEngine(model, kset, db, cfg, defaultRetrieval)
}

// newEngine is New with the retrieval setup given explicitly.
func newEngine(model llm.Model, kset *knowledge.Set, db *sqldb.Database, cfg Config, ret retrieval) *Engine {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	e := &Engine{
		model: model,
		kset:  kset,
		db:    db,
		sch:   schema.FromDatabase(db, schema.DefaultTopValues),
		exec:  sqlexec.New(db),
		cfg:   cfg,
		ret:   ret,
	}
	e.buildIndices(nil)
	return e
}

// KnowledgeSet returns the engine's live knowledge set.
func (e *Engine) KnowledgeSet() *knowledge.Set { return e.kset }

// RetrievalStats aggregates the two retrieval indices' search counters.
type RetrievalStats struct {
	Examples     embed.SearchStats
	Instructions embed.SearchStats
}

// RetrievalStats snapshots the engine's retrieval counters. Safe to call
// concurrently with GenerateContext.
func (e *Engine) RetrievalStats() RetrievalStats {
	return RetrievalStats{
		Examples:     e.exIndex.Stats(),
		Instructions: e.insIndex.Stats(),
	}
}

// Database returns the bound database.
func (e *Engine) Database() *sqldb.Database { return e.db }

// WithKnowledge returns a new engine over a different knowledge set (the
// staging environment of §4.2.1), sharing model, database and config. An
// edit touches one or two items, so the new engine embeds only what changed:
// every item whose embedded texts equal those of this engine's item of the
// same ID shares this engine's immutable vectors.
func (e *Engine) WithKnowledge(kset *knowledge.Set) *Engine {
	out := &Engine{
		model: e.model, kset: kset, db: e.db, sch: e.sch,
		exec: e.exec, cfg: e.cfg, ret: e.ret,
	}
	out.buildIndices(e)
	return out
}

// GenerateContext runs the full inference pipeline for one question. The
// evidence string is the benchmark-provided external knowledge (may be
// empty). Cancellation is checked between operators and between
// self-correction attempts, so a canceled or expired ctx aborts promptly
// mid-pipeline with an error matching generr.ErrCanceled (and the underlying
// ctx.Err()). A trace hook attached via WithTrace receives per-operator
// timings when the call returns. The ctx carries deadline and trace only — it never changes
// what SQL a completed call produces.
func (e *Engine) GenerateContext(ctx context.Context, question, evidence string) (*Record, error) {
	tr := newTraceRecorder(ctx, question, e.db.Name)
	defer tr.finish()

	rec := &Record{Question: question, Evidence: evidence}
	if err := generr.FromContext(ctx); err != nil {
		return nil, err
	}

	// Operator 1: query reformulation.
	done := tr.step("reformulation")
	reformulated, err := e.model.Reformulate(question)
	done()
	if err != nil {
		return nil, fmt.Errorf("reformulation: %w", err)
	}
	rec.Reformulated = reformulated
	if err := generr.FromContext(ctx); err != nil {
		return nil, err
	}

	// Operator 2: intent classification.
	done = tr.step("intent_classification")
	intentIDs, err := e.model.ClassifyIntents(reformulated, e.intentOpts)
	done()
	if err != nil {
		return nil, fmt.Errorf("intent classification: %w", err)
	}
	rec.IntentIDs = intentIDs
	for _, id := range intentIDs {
		if it := e.kset.Intent(id); it != nil {
			rec.IntentNames = append(rec.IntentNames, it.Name)
		}
	}

	promptCtx := llm.Context{
		Question:   reformulated,
		Original:   question,
		DB:         e.db.Name,
		Intents:    rec.IntentNames,
		Evidence:   evidence,
		Directives: e.kset.Directives(),
	}

	// The reformulated query is embedded exactly once per request: intent
	// classification asked the process-wide memo for it a moment ago, and
	// the same vector drives example retrieval, example re-ranking and
	// instruction re-ranking (operators 3-4). It is the one dense vector a
	// request scores with, scattered onto the stack.
	var qbuf [embed.Dim]float64
	qv := embed.Memo(reformulated).AppendDense(qbuf[:0])

	// Operator 3: example selection (intent retrieval + query re-ranking).
	// When examples are ablated (Table 2 "w/o Examples"), selection still
	// runs for the internal operators — the planner derives its pseudo-SQL
	// from selected examples (§3.3.4 notes examples "are what we use to add
	// pseudo-SQL to the CoT plan") — but the examples are withheld from the
	// generation prompt.
	done = tr.step("example_selection")
	promptCtx.Examples = e.selectExamples(qv, intentIDs)
	done()

	// Operator 4: instruction selection (re-ranked with example context —
	// the compounding/context-expansion step).
	if !e.cfg.DisableInstructions {
		done = tr.step("instruction_selection")
		promptCtx.Instructions = e.selectInstructions(qv, intentIDs, promptCtx.Examples)
		done()
	}
	if err := generr.FromContext(ctx); err != nil {
		return nil, err
	}

	// Operator 5: schema linking with re-rank filtering.
	if e.cfg.DisableSchemaLinking {
		promptCtx.SchemaDDL = e.sch.DDL()
		promptCtx.LinkedElements = nil
	} else {
		done = tr.step("schema_linking")
		els, err := e.model.LinkSchema(reformulated, e.sch, &promptCtx)
		done()
		if err != nil {
			return nil, fmt.Errorf("schema linking: %w", err)
		}
		linked := make([]schema.Element, len(els))
		copy(linked, els)
		promptCtx.LinkedElements = linked
		promptCtx.SchemaDDL = e.sch.LinkedDDL(linked)
	}
	if err := generr.FromContext(ctx); err != nil {
		return nil, err
	}

	// Operator 6: CoT plan generation with pseudo-SQL.
	var plan llm.Plan
	if !e.cfg.DisablePlanning {
		done = tr.step("planning")
		plan, err = e.model.Plan(&promptCtx)
		done()
		if err != nil {
			return nil, fmt.Errorf("planning: %w", err)
		}
		if e.cfg.DisablePseudoSQL {
			for i := range plan.Steps {
				plan.Steps[i].Pseudo = ""
				plan.Steps[i].SQL = ""
				plan.Steps[i].AnchorSQL = ""
			}
		}
	}
	rec.Plan = plan

	// Withhold ablated examples from the generation prompt (see operator 3
	// above: the planner has already consumed them).
	if e.cfg.DisableExamples {
		promptCtx.Examples = nil
	}
	if err := generr.FromContext(ctx); err != nil {
		return nil, err
	}

	// Operators 7-9: generation with execution feedback and regeneration.
	done = tr.step("generation_loop")
	err = e.generateWithCorrection(ctx, rec, &promptCtx, plan)
	done()
	if err != nil {
		return nil, err
	}
	rec.Context = promptCtx
	return rec, nil
}

// generateWithCorrection runs the generate → execute → repair loop. Genctx
// cancellation is checked before each execution and each repair call; on
// cancellation the returned error matches generr.ErrCanceled (and
// GenerateContext discards the partial record — a canceled call yields no
// trace).
func (e *Engine) generateWithCorrection(genctx context.Context, rec *Record, ctx *llm.Context, plan llm.Plan) error {
	type candidate struct {
		sql  string
		res  *sqlexec.Result
		kind string
	}
	var best *candidate
	better := func(a, b *candidate) bool { // is a better than b
		rank := func(c *candidate) int {
			switch c.kind {
			case "ok":
				return 2
			case "empty":
				return 1
			default:
				return 0
			}
		}
		return b == nil || rank(a) > rank(b)
	}

	sql, err := e.model.GenerateSQL(ctx, plan)
	if err != nil {
		rec.Attempts = append(rec.Attempts, Attempt{Kind: "exec", Err: err.Error()})
		return nil
	}
	emptyRetried := false
	for attempt := 0; ; attempt++ {
		if err := generr.FromContext(genctx); err != nil {
			return err
		}
		att := Attempt{SQL: sql}
		res, execErr := e.exec.Query(sql)
		switch {
		case execErr == nil && len(res.Rows) > 0:
			att.Kind = "ok"
			att.Rows = len(res.Rows)
		case execErr == nil:
			att.Kind = "empty"
		case isSyntaxError(execErr):
			att.Kind = "syntax"
			att.Err = execErr.Error()
		default:
			att.Kind = "exec"
			att.Err = execErr.Error()
		}
		rec.Attempts = append(rec.Attempts, att)

		cand := &candidate{sql: sql, res: res, kind: att.Kind}
		if execErr != nil {
			cand.res = nil
		}
		if better(cand, best) {
			best = cand
		}

		if att.Kind == "ok" {
			break
		}
		if att.Kind == "empty" {
			// The model-based semantic check flags empty results once; an
			// empty result may still be the right answer.
			if emptyRetried {
				break
			}
			emptyRetried = true
		}
		if attempt+1 >= e.cfg.MaxAttempts {
			break
		}
		feedback := att.Err
		if att.Kind == "empty" {
			feedback = "semantic check: the query executed but returned no rows; verify filters and joins"
		}
		ctx.Attempt = attempt + 1
		ctx.PriorSQL = sql
		ctx.PriorError = feedback
		if err := generr.FromContext(genctx); err != nil {
			return err
		}
		repaired := ""
		if e.cfg.ClauseEditCorrection && att.Kind != "syntax" {
			// Targeted clause-level correction: cheaper than a full
			// regeneration and bounded to the clauses that are wrong.
			// Syntax failures skip it — unparsable SQL has no fragments.
			repaired = e.clauseEditRepair(ctx, plan, sql, feedback)
		}
		if repaired == "" {
			var rerr error
			repaired, rerr = e.model.RepairSQL(ctx, plan, sql, feedback)
			if rerr != nil || repaired == "" {
				break
			}
		}
		sql = repaired
	}

	if best != nil {
		rec.FinalSQL = best.sql
		rec.OK = best.kind == "ok" || best.kind == "empty"
		rec.Result = best.res
	}
	return nil
}

// clauseEditRepair implements the clause-level correction path: decompose
// the failing SQL, ask the model (if it is a ClauseEditor) for targeted
// clause edits, apply them to the fragments and recompose. Returns "" when
// the path does not apply — caller falls back to full regeneration.
func (e *Engine) clauseEditRepair(ctx *llm.Context, plan llm.Plan, sql, execError string) string {
	editor, ok := e.model.(llm.ClauseEditor)
	if !ok {
		return ""
	}
	frags, err := decompose.DecomposeSQL(sql)
	if err != nil || len(frags) == 0 {
		return ""
	}
	clauseFrags := make([]llm.ClauseFragment, len(frags))
	for i, f := range frags {
		clauseFrags[i] = llm.ClauseFragment{
			Unit: f.Unit, Clause: string(f.Clause), SQL: f.SQL, Distinct: f.Distinct,
		}
	}
	edits, err := editor.EditClauses(ctx, plan, clauseFrags, execError)
	if err != nil || len(edits) == 0 {
		return ""
	}
	out, err := decompose.ComposeSQL(applyClauseEdits(frags, edits))
	if err != nil {
		return ""
	}
	return out
}

// applyClauseEdits replaces, deletes or inserts fragments per the edits.
// Inserted clauses for an existing unit land next to that unit's fragments,
// preserving CTE first-occurrence order on recomposition.
func applyClauseEdits(frags []decompose.Fragment, edits []llm.ClauseEdit) []decompose.Fragment {
	out := append([]decompose.Fragment(nil), frags...)
	for _, ed := range edits {
		idx := -1
		for i, f := range out {
			if f.Unit == ed.Unit && string(f.Clause) == ed.Clause {
				idx = i
				break
			}
		}
		switch {
		case ed.Delete:
			if idx >= 0 {
				out = append(out[:idx], out[idx+1:]...)
			}
		case idx >= 0:
			out[idx].SQL = ed.SQL
			out[idx].Distinct = ed.Distinct
		default:
			frag := decompose.Fragment{
				Unit: ed.Unit, Clause: decompose.Clause(ed.Clause),
				SQL: ed.SQL, Distinct: ed.Distinct,
			}
			// Insert after the unit's last existing fragment so a brand-new
			// clause never reorders the unit sequence.
			at := len(out)
			for i := len(out) - 1; i >= 0; i-- {
				if out[i].Unit == ed.Unit {
					at = i + 1
					break
				}
			}
			out = append(out, decompose.Fragment{})
			copy(out[at+1:], out[at:])
			out[at] = frag
		}
	}
	return out
}

func isSyntaxError(err error) bool {
	_, ok := err.(*sqlparse.SyntaxError)
	if ok {
		return true
	}
	return strings.Contains(err.Error(), "syntax error")
}
