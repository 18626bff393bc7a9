// Package pipeline implements GenEdit's SQL generation module: the
// compounding operator pipeline of Fig. 1 (inference operators 1-9) over a
// company-specific knowledge set, with the ablation switches of Table 2.
package pipeline

import (
	"context"
	"fmt"
	"slices"
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
	// TopExamples caps selected examples.
	TopExamples int
	// TopInstructions caps selected instructions.
	TopInstructions int
	// ExpansionWeight blends example-context similarity into instruction
	// re-ranking (context expansion, §3.1.1).
	ExpansionWeight float64
	// SemanticCheck enables the model-based empty-result regeneration.
	SemanticCheck bool
	// StatementCacheSize bounds the executor's parsed-statement LRU;
	// 0 means sqlexec.DefaultStatementCacheSize. Serving deployments with
	// a larger hot set raise it through genedit.WithStatementCacheSize.
	StatementCacheSize int
	// ClauseEditCorrection switches the self-correction operator (8-9) from
	// full regeneration to clause-level editing: the failing SQL is
	// decomposed into fragments and the model proposes targeted clause
	// edits (llm.ClauseEditor), falling back to RepairSQL when the model
	// lacks the capability, the SQL does not parse (syntax failures), or no
	// edit is proposed. Off by default: the edit path changes the SQL the
	// correction loop produces, so it is opt-in to keep the baseline EX
	// tables bit-identical.
	ClauseEditCorrection bool

	// ExampleFanout / InstructionFanout are the retrieval fan-outs of the
	// example and instruction selectors: how many candidates the global
	// similarity search pulls from the index before intent filtering and
	// re-ranking. <= 0 means the defaults (DefaultExampleFanout /
	// DefaultInstructionFanout), which reproduce the paper configuration.
	ExampleFanout     int
	InstructionFanout int
	// DisableANNRetrieval forces every retrieval through the plain full
	// scan. The ANN layer is exact by construction (top-k order-identical
	// to the brute scan — see internal/embed), so this switch exists for
	// debugging and apples-to-apples comparisons.
	DisableANNRetrieval bool
	// ANNMinSize / ANNProbes tune the retrieval index's partitioning
	// threshold and unconditional probe count; 0 means the embed defaults.
	ANNMinSize int
	ANNProbes  int

	// Table 2 ablations.
	DisableSchemaLinking bool
	DisableInstructions  bool
	DisableExamples      bool
	DisablePseudoSQL     bool
	DisableDecomposition bool

	// Additional design-choice ablations.
	DisableContextExpansion bool
	DisablePlanning         bool
	DisableSelfCorrection   bool
	DisableReformulation    bool
}

// Default retrieval fan-outs (the historical hard-coded values).
const (
	DefaultExampleFanout     = 24
	DefaultInstructionFanout = 16
)

// DefaultConfig returns the production configuration.
func DefaultConfig() Config {
	return Config{
		MaxAttempts:       3,
		TopExamples:       12,
		TopInstructions:   6,
		ExpansionWeight:   0.45,
		SemanticCheck:     true,
		ExampleFanout:     DefaultExampleFanout,
		InstructionFanout: DefaultInstructionFanout,
	}
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
// Concurrency contract: an Engine is safe for concurrent Generate /
// GenerateContext calls. All per-engine state — the knowledge set, schema
// profile, retrieval indices and precomputed vectors — is read-only after
// construction; the executor synchronizes its statement cache internally;
// and the model is required to be concurrency-safe (the simulated model is
// a pure function of its seed). Mutating operations (WithKnowledge) return
// a new Engine rather than changing a shared one, so a served engine is
// immutable for its lifetime.
type Engine struct {
	model llm.Model
	kset  *knowledge.Set
	db    *sqldb.Database
	sch   *schema.Schema
	exec  *sqlexec.Executor
	cfg   Config

	exIndex  *embed.Index
	insIndex *embed.Index
	// intentOpts is the classification option list, derived from the
	// knowledge set once at index-build time (the set is immutable while
	// served, and Intents() deep-copies on every call).
	intentOpts []llm.IntentOption
	// fullExs are the deduplicated full-query example candidates (the
	// "w/o Decomposition" ablation path), with their ranking vectors
	// precomputed so per-Generate scoring is a dot product per candidate.
	fullExs []*fullExCand
	// Vectors precomputed at index-build time so per-Generate re-ranking
	// does not re-embed unchanged knowledge items. Read-only after
	// buildIndices (WithKnowledge rebuilds them with the indices).
	dirVecs     []embed.Vector          // directive texts
	insTextVecs map[string]embed.Vector // instruction Text alone (directive boost)
	srcQVecs    map[string]embed.Vector // example SourceQuestion texts
	exPairVecs  map[string]embed.Vector // example NL+SQL (context expansion)
}

// New builds an engine. The knowledge set is indexed for retrieval once.
func New(model llm.Model, kset *knowledge.Set, db *sqldb.Database, cfg Config) *Engine {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.ExampleFanout <= 0 {
		cfg.ExampleFanout = DefaultExampleFanout
	}
	if cfg.InstructionFanout <= 0 {
		cfg.InstructionFanout = DefaultInstructionFanout
	}
	exec := sqlexec.New(db)
	if cfg.StatementCacheSize > 0 {
		exec.SetStatementCacheSize(cfg.StatementCacheSize)
	}
	e := &Engine{
		model: model,
		kset:  kset,
		db:    db,
		sch:   schema.FromDatabase(db, schema.DefaultTopValues),
		exec:  exec,
		cfg:   cfg,
	}
	e.buildIndices()
	return e
}

func (e *Engine) buildIndices() {
	e.exIndex = embed.NewIndex()
	e.srcQVecs = make(map[string]embed.Vector)
	e.exPairVecs = make(map[string]embed.Vector)
	for _, ex := range e.kset.Examples() {
		e.exIndex.Add(ex.ID, ex.Text())
		if ex.SourceQuestion != "" {
			if _, ok := e.srcQVecs[ex.SourceQuestion]; !ok {
				e.srcQVecs[ex.SourceQuestion] = embed.Text(ex.SourceQuestion)
			}
		}
		e.exPairVecs[ex.ID] = embed.Text(ex.NL + " " + ex.SQL)
	}
	e.insIndex = embed.NewIndex()
	e.insTextVecs = make(map[string]embed.Vector)
	for _, ins := range e.kset.Instructions() {
		e.insIndex.Add(ins.ID, ins.RetrievalText())
		e.insTextVecs[ins.ID] = embed.Text(ins.Text)
	}
	directives := e.kset.Directives()
	e.dirVecs = make([]embed.Vector, len(directives))
	for i, d := range directives {
		e.dirVecs[i] = embed.Text(d)
	}
	e.intentOpts = nil
	for _, it := range e.kset.Intents() {
		e.intentOpts = append(e.intentOpts, llm.IntentOption{ID: it.ID, Name: it.Name, Description: it.Description})
	}
	e.fullExs = nil
	seenSQL := make(map[string]bool)
	for _, ex := range e.kset.Examples() {
		if ex.SourceSQL == "" || seenSQL[ex.SourceSQL] {
			continue
		}
		seenSQL[ex.SourceSQL] = true
		text := ex.SourceQuestion
		if text == "" {
			text = ex.SourceSQL
		}
		e.fullExs = append(e.fullExs, &fullExCand{
			id:  fmt.Sprintf("full-%03d", len(e.fullExs)+1),
			nl:  ex.SourceQuestion,
			sql: ex.SourceSQL,
			vec: embed.Text(text),
		})
	}

	// Seal the retrieval indices: partition them for sub-linear search while
	// the engine is still private to this goroutine. Engines are immutable
	// once served, so approval hot-swaps re-enter here via WithKnowledge and
	// always publish a freshly partitioned — never stale — index.
	if !e.cfg.DisableANNRetrieval {
		annCfg := embed.ANNConfig{MinSize: e.cfg.ANNMinSize, Probes: e.cfg.ANNProbes}
		e.exIndex.EnableANN(annCfg)
		e.insIndex.EnableANN(annCfg)
	}
	e.exIndex.Build()
	e.insIndex.Build()
}

// fullExCand is one precomputed full-query example candidate.
type fullExCand struct {
	id  string
	nl  string
	sql string
	vec embed.Vector
}

// KnowledgeSet returns the engine's live knowledge set.
func (e *Engine) KnowledgeSet() *knowledge.Set { return e.kset }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// RetrievalStats aggregates the two retrieval indices' search counters.
type RetrievalStats struct {
	Examples     embed.SearchStats
	Instructions embed.SearchStats
}

// RetrievalStats snapshots the engine's retrieval counters. Safe to call
// concurrently with Generate.
func (e *Engine) RetrievalStats() RetrievalStats {
	return RetrievalStats{
		Examples:     e.exIndex.Stats(),
		Instructions: e.insIndex.Stats(),
	}
}

// Database returns the bound database.
func (e *Engine) Database() *sqldb.Database { return e.db }

// Schema returns the profiled schema.
func (e *Engine) Schema() *schema.Schema { return e.sch }

// WithKnowledge returns a new engine over a different knowledge set (the
// staging environment of §4.2.1), sharing model, database and config.
func (e *Engine) WithKnowledge(kset *knowledge.Set) *Engine {
	out := &Engine{
		model: e.model, kset: kset, db: e.db, sch: e.sch,
		exec: e.exec, cfg: e.cfg,
	}
	out.buildIndices()
	return out
}

// Generate runs the full inference pipeline for one question with no
// deadline. The evidence string is the benchmark-provided external knowledge
// (may be empty).
func (e *Engine) Generate(question, evidence string) (*Record, error) {
	return e.GenerateContext(context.Background(), question, evidence)
}

// GenerateContext runs the full inference pipeline for one question.
// Cancellation is checked between operators and between self-correction
// attempts, so a canceled or expired ctx aborts promptly mid-pipeline with
// an error matching generr.ErrCanceled (and the underlying ctx.Err()). A
// trace hook attached via WithTrace receives per-operator timings when the
// call returns. The ctx carries deadline and trace only — it never changes
// what SQL a completed call produces.
func (e *Engine) GenerateContext(ctx context.Context, question, evidence string) (*Record, error) {
	tr := newTraceRecorder(ctx, question, e.db.Name)
	defer tr.finish()

	rec := &Record{Question: question, Evidence: evidence}
	if err := generr.FromContext(ctx); err != nil {
		return nil, err
	}

	// Operator 1: query reformulation.
	reformulated := question
	if !e.cfg.DisableReformulation {
		done := tr.step("reformulation")
		var err error
		reformulated, err = e.model.Reformulate(question)
		done()
		if err != nil {
			return nil, fmt.Errorf("reformulation: %w", err)
		}
	}
	rec.Reformulated = reformulated
	if err := generr.FromContext(ctx); err != nil {
		return nil, err
	}

	// Operator 2: intent classification.
	done := tr.step("intent_classification")
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

	// The reformulated query is embedded exactly once; the same vector
	// drives example retrieval, example re-ranking and instruction
	// re-ranking (operators 3-4), which previously each re-embedded it.
	qv := embed.Text(reformulated)

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
		sub := e.sch.Subset(linked)
		if sub.ColumnCount() == 0 {
			promptCtx.SchemaDDL = e.sch.DDL()
		} else {
			promptCtx.SchemaDDL = sub.DDL()
		}
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
		case execErr == nil && (len(res.Rows) > 0 || !e.cfg.SemanticCheck):
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
		if e.cfg.DisableSelfCorrection || attempt+1 >= e.cfg.MaxAttempts {
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

// selectExamples implements operator 3. Candidates come from the classified
// intents plus a global query-similarity search; all candidates are
// re-ranked by cosine similarity with the reformulated query (whose
// precomputed embedding qv is threaded in by Generate). When decomposition
// is ablated the knowledge set's fragments are regrouped into traditional
// full-query examples.
func (e *Engine) selectExamples(qv embed.Vector, intentIDs []string) []llm.RetrievedExample {
	if e.cfg.DisableDecomposition {
		return e.selectFullExamples(qv)
	}
	seen := make(map[string]bool)
	var candidates []*knowledge.Example
	for _, id := range intentIDs {
		for _, ex := range e.kset.ExamplesByIntent(id) {
			if !seen[ex.ID] {
				seen[ex.ID] = true
				candidates = append(candidates, ex)
			}
		}
	}
	for _, hit := range e.exIndex.SearchVector(qv, e.cfg.ExampleFanout) {
		if ex := e.kset.Example(hit.ID); ex != nil && !seen[ex.ID] {
			seen[ex.ID] = true
			candidates = append(candidates, ex)
		}
	}
	return selectTop(candidates, e.cfg.TopExamples,
		func(ex *knowledge.Example) string { return ex.ID },
		func(ex *knowledge.Example) float64 {
			// A fragment is relevant when its own text matches the query or
			// when the question of the query it was decomposed from does —
			// sub-statements of similar historical questions are the reusable
			// unit §3.2 is built around.
			exVec := e.exIndex.Vector(ex.ID)
			if exVec == nil {
				exVec = embed.Text(ex.Text())
			}
			score := embed.Cosine(qv, exVec)
			if ex.SourceQuestion != "" {
				sv, ok := e.srcQVecs[ex.SourceQuestion]
				if !ok {
					sv = embed.Text(ex.SourceQuestion)
				}
				if s := 0.92 * embed.Cosine(qv, sv); s > score {
					score = s
				}
			}
			return score
		},
		func(ex *knowledge.Example, score float64) llm.RetrievedExample {
			return llm.RetrievedExample{
				ID: ex.ID, NL: ex.NL, Pseudo: ex.Pseudo, SQL: ex.SQL,
				Clause: ex.Clause, Terms: ex.Terms,
				Score: score,
			}
		})
}

// selectTop is the ranking step the three selectors share: score every
// candidate, keep the k best under the retrieval order (score descending,
// then ID ascending; IDs are unique, so the order is total and the result
// does not depend on how it is found) and build the prompt entry of those k
// only. Candidate sets grow with the knowledge set while k stays a
// handful, so the ranking works on (pointer, score) pairs and never sorts
// more than k of them.
func selectTop[C, R any](candidates []*C, k int, id func(*C) string,
	score func(*C) float64, build func(*C, float64) R) []R {

	k = min(k, len(candidates))
	if k <= 0 {
		return []R{}
	}
	type scoredCand struct {
		c     *C
		score float64
	}
	before := func(a, b scoredCand) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		}
		return strings.Compare(id(a.c), id(b.c))
	}
	scored := make([]scoredCand, len(candidates))
	for i, c := range candidates {
		scored[i] = scoredCand{c: c, score: score(c)}
	}
	top := scored[:k]
	slices.SortFunc(top, before)
	for _, sc := range scored[k:] {
		if before(sc, top[k-1]) >= 0 {
			continue
		}
		// sc displaces the current kth: shift the tail down one place.
		at, _ := slices.BinarySearchFunc(top, sc, before)
		copy(top[at+1:], top[at:k-1])
		top[at] = sc
	}
	out := make([]R, k)
	for i, sc := range top {
		out[i] = build(sc.c, sc.score)
	}
	return out
}

// selectFullExamples regroups decomposed fragments into whole-query
// examples (the traditional representation, used by the "w/o Decomposition"
// ablation).
func (e *Engine) selectFullExamples(qv embed.Vector) []llm.RetrievedExample {
	return selectTop(e.fullExs, e.cfg.TopExamples,
		func(fe *fullExCand) string { return fe.id },
		func(fe *fullExCand) float64 { return embed.Cosine(qv, fe.vec) },
		func(fe *fullExCand, score float64) llm.RetrievedExample {
			return llm.RetrievedExample{ID: fe.id, NL: fe.nl, FullSQL: fe.sql, Score: score}
		})
}

// selectInstructions implements operator 4: candidates from intents plus
// global search, re-ranked by similarity to the query AND to the already-
// selected examples — the context expansion the paper's compounding
// operators are named for. qv is the precomputed embedding of the
// reformulated query.
func (e *Engine) selectInstructions(qv embed.Vector, intentIDs []string, examples []llm.RetrievedExample) []llm.RetrievedInstruction {
	seen := make(map[string]bool)
	var candidates []*knowledge.Instruction
	for _, id := range intentIDs {
		for _, ins := range e.kset.InstructionsByIntent(id) {
			if !seen[ins.ID] {
				seen[ins.ID] = true
				candidates = append(candidates, ins)
			}
		}
	}
	for _, hit := range e.insIndex.SearchVector(qv, e.cfg.InstructionFanout) {
		if ins := e.kset.Instruction(hit.ID); ins != nil && !seen[ins.ID] {
			seen[ins.ID] = true
			candidates = append(candidates, ins)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	exVecs := make([]embed.Vector, len(examples))
	for i, ex := range examples {
		v, ok := e.exPairVecs[ex.ID]
		if !ok { // regrouped full-query examples are not knowledge items
			v = embed.Text(ex.NL + " " + ex.SQL)
		}
		exVecs[i] = v
	}
	directiveBoost := e.directiveBoost()

	return selectTop(candidates, e.cfg.TopInstructions,
		func(ins *knowledge.Instruction) string { return ins.ID },
		func(ins *knowledge.Instruction) float64 {
			insVec := e.insIndex.Vector(ins.ID)
			if insVec == nil {
				insVec = embed.Text(ins.Text + " " + ins.SQLHint)
			}
			score := embed.Cosine(qv, insVec)
			if !e.cfg.DisableContextExpansion && len(exVecs) > 0 {
				maxEx := 0.0
				for _, ev := range exVecs {
					if c := embed.Cosine(ev, insVec); c > maxEx {
						maxEx = c
					}
				}
				score += e.cfg.ExpansionWeight * maxEx
			}
			return score + directiveBoost(ins)
		},
		func(ins *knowledge.Instruction, score float64) llm.RetrievedInstruction {
			return llm.RetrievedInstruction{
				ID: ins.ID, Text: ins.Text, SQLHint: ins.SQLHint, Terms: ins.Terms,
				Score: score,
			}
		})
}

// directiveBoost applies knowledge-set retrieval directives: instructions
// matching a directive's vocabulary get a small ranking boost. Directive
// and instruction-text vectors come from the caches buildIndices filled.
func (e *Engine) directiveBoost() func(*knowledge.Instruction) float64 {
	if len(e.dirVecs) == 0 {
		return func(*knowledge.Instruction) float64 { return 0 }
	}
	return func(ins *knowledge.Instruction) float64 {
		iv, ok := e.insTextVecs[ins.ID]
		if !ok {
			iv = embed.Text(ins.Text)
		}
		best := 0.0
		for _, dv := range e.dirVecs {
			if c := embed.Cosine(dv, iv); c > best {
				best = c
			}
		}
		return 0.1 * best
	}
}
