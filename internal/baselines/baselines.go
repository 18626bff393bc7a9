// Package baselines reimplements the pipeline shapes of the five systems
// GenEdit is compared against in Table 1, over the same simulated-model
// substrate. Each baseline captures the defining architecture of its paper:
//
//   - CHESS   — contextual retrieval, strong schema selection, candidate
//     generation with a revision loop (Talaei et al., 2024).
//   - MAC-SQL — multi-agent selector / decomposer / refiner: schema
//     selection, an NL sub-question plan, refine-on-error (Wang et al.).
//   - TA-SQL  — task alignment: schema linking plus aligned direct
//     generation, one repair pass (Qu et al., 2024).
//   - DAIL-SQL — masked-question-similarity few-shot with full-SQL
//     examples, no schema pruning (Gao et al., 2023).
//   - C3-SQL  — zero-shot ChatGPT-style: calibrated prompt, schema
//     filtering, no examples, no retries (Dong et al., 2023).
//
// Baselines do not see GenEdit's knowledge set: they receive the benchmark
// evidence string and (where their design calls for it) the raw historical
// query log as few-shot examples. Capability differences are expressed as
// simllm profiles; every draw is salted by the system name.
package baselines

import (
	"fmt"

	"genedit/internal/embed"
	"genedit/internal/llm"
	"genedit/internal/schema"
	"genedit/internal/simllm"
	"genedit/internal/sqlexec"
	"genedit/internal/task"
	"genedit/internal/workload"
)

// shape controls which architectural pieces a baseline uses.
type shape struct {
	// reformulate rewrites the question first (CHESS normalizes input).
	reformulate bool
	// schemaLinking selects schema elements before generation.
	schemaLinking bool
	// plan produces an NL decomposition (MAC-SQL's decomposer agent);
	// baselines never have pseudo-SQL anchors — that is GenEdit's novelty —
	// so plans carry descriptions only.
	plan bool
	// fewShot attaches full-SQL examples retrieved from the query log by
	// question similarity (DAIL-SQL; CHESS retrieves context too).
	fewShot int
	// retries is the self-correction budget.
	retries int
}

// Baseline is one comparison system bound to the benchmark suite.
type Baseline struct {
	name    string
	model   *simllm.Model
	shape   shape
	schemas map[string]*schema.Schema
	execs   map[string]*sqlexec.Executor
	logs    map[string][]logExample
}

type logExample struct {
	question string
	sql      string
	// vec embeds the masked question, once, when the baseline is built.
	vec embed.Embedded
}

// New constructs a baseline over a suite.
func New(name string, profile simllm.Profile, sh shape, suite *workload.Suite, seed uint64) *Baseline {
	b := &Baseline{
		name:    name,
		model:   simllm.New(profile, suite.Registry, seed),
		shape:   sh,
		schemas: suite.Schemas,
		execs:   make(map[string]*sqlexec.Executor, len(suite.Databases)),
		logs:    make(map[string][]logExample, len(suite.KB)),
	}
	for dbName, db := range suite.Databases {
		b.execs[dbName] = sqlexec.New(db)
	}
	for dbName, in := range suite.KB {
		for _, entry := range in.Logs {
			b.logs[dbName] = append(b.logs[dbName], logExample{
				question: entry.Question, sql: entry.SQL,
				vec: embed.Embed(maskLiterals(entry.Question)),
			})
		}
	}
	return b
}

// Name implements eval.System.
func (b *Baseline) Name() string { return b.name }

// Generate implements eval.System: run the baseline's pipeline shape.
func (b *Baseline) Generate(c *task.Case) (string, error) {
	sch, ok := b.schemas[c.DB]
	if !ok {
		return "", fmt.Errorf("%s: unknown database %q", b.name, c.DB)
	}
	question := c.Question
	if b.shape.reformulate {
		q, err := b.model.Reformulate(question)
		if err != nil {
			return "", err
		}
		question = q
	}

	ctx := llm.Context{
		Question: question,
		Original: c.Question,
		DB:       c.DB,
		Evidence: c.Evidence,
	}

	if b.shape.fewShot > 0 {
		ctx.Examples = b.selectFewShot(c.DB, question, b.shape.fewShot)
	}

	if b.shape.schemaLinking {
		els, err := b.model.LinkSchema(question, sch, &ctx)
		if err != nil {
			return "", err
		}
		linked := make([]schema.Element, 0, len(els))
		linked = append(linked, els...)
		ctx.LinkedElements = linked
		ctx.SchemaDDL = sch.LinkedDDL(linked)
	} else {
		ctx.SchemaDDL = sch.DDL()
	}

	var plan llm.Plan
	if b.shape.plan {
		p, err := b.model.Plan(&ctx)
		if err != nil {
			return "", err
		}
		// Baseline decomposers produce natural-language sub-questions, not
		// pseudo-SQL; strip the anchors GenEdit would keep.
		for i := range p.Steps {
			p.Steps[i].Pseudo = ""
			p.Steps[i].SQL = ""
		}
		plan = p
	}

	sql, err := b.model.GenerateSQL(&ctx, plan)
	if err != nil {
		return "", err
	}
	exec := b.execs[c.DB]
	for attempt := 0; attempt < b.shape.retries; attempt++ {
		_, execErr := exec.Query(sql)
		if execErr == nil {
			break
		}
		ctx.Attempt = attempt + 1
		ctx.PriorSQL = sql
		ctx.PriorError = execErr.Error()
		repaired, rerr := b.model.RepairSQL(&ctx, plan, sql, execErr.Error())
		if rerr != nil || repaired == "" {
			break
		}
		sql = repaired
	}
	return sql, nil
}

// selectFewShot retrieves the k most similar log entries as full-SQL
// examples (DAIL-SQL's masked-question similarity, approximated by the
// deterministic embedding).
func (b *Baseline) selectFewShot(db, question string, k int) []llm.RetrievedExample {
	logs := b.logs[db]
	qv := embed.Embed(maskLiterals(question))
	type scored struct {
		ex    logExample
		score float64
	}
	items := make([]scored, 0, len(logs))
	for _, le := range logs {
		items = append(items, scored{ex: le, score: qv.Cosine(le.vec)})
	}
	// Selection sort for the top k keeps this dependency-free and stable.
	var out []llm.RetrievedExample
	used := make([]bool, len(items))
	for n := 0; n < k && n < len(items); n++ {
		best := -1
		for i := range items {
			if used[i] {
				continue
			}
			if best < 0 || items[i].score > items[best].score {
				best = i
			}
		}
		used[best] = true
		out = append(out, llm.RetrievedExample{
			ID:      fmt.Sprintf("%s-shot-%d", b.name, n+1),
			NL:      items[best].ex.question,
			FullSQL: items[best].ex.sql,
			Score:   items[best].score,
		})
	}
	return out
}

// maskLiterals approximates DAIL's question masking: digits become a
// placeholder so parameter values don't dominate similarity.
func maskLiterals(s string) string {
	out := []byte(s)
	for i := range out {
		if out[i] >= '0' && out[i] <= '9' {
			out[i] = '#'
		}
	}
	return string(out)
}
