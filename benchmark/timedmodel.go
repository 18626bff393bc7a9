package main

import (
	"context"

	"genedit/internal/llm"
	"genedit/internal/pipeline"
	"genedit/internal/schema"
	"genedit/internal/simllm"
)

// timedModel is the simulated model with a span around every operator call,
// so a traced engine shows which part of each pipeline operator is the model.
type timedModel struct {
	inner *simllm.Model
	tr    *tracer
}

var (
	_ llm.Model        = (*timedModel)(nil)
	_ llm.ClauseEditor = (*timedModel)(nil)
)

func (m *timedModel) Reformulate(question string) (string, error) {
	defer m.tr.end(m.tr.begin("simllm.reformulate"))
	return m.inner.Reformulate(question)
}

func (m *timedModel) ClassifyIntents(question string, options []llm.IntentOption) ([]string, error) {
	defer m.tr.end(m.tr.begin("simllm.classify"))
	return m.inner.ClassifyIntents(question, options)
}

func (m *timedModel) LinkSchema(question string, full *schema.Schema, ctx *llm.Context) ([]schema.Element, error) {
	defer m.tr.end(m.tr.begin("simllm.link_schema"))
	return m.inner.LinkSchema(question, full, ctx)
}

func (m *timedModel) Plan(ctx *llm.Context) (llm.Plan, error) {
	defer m.tr.end(m.tr.begin("simllm.plan"))
	return m.inner.Plan(ctx)
}

func (m *timedModel) GenerateSQL(ctx *llm.Context, plan llm.Plan) (string, error) {
	defer m.tr.end(m.tr.begin("simllm.generate_sql"))
	return m.inner.GenerateSQL(ctx, plan)
}

func (m *timedModel) RepairSQL(ctx *llm.Context, plan llm.Plan, priorSQL, execError string) (string, error) {
	defer m.tr.end(m.tr.begin("simllm.repair_sql"))
	return m.inner.RepairSQL(ctx, plan, priorSQL, execError)
}

func (m *timedModel) EditClauses(ctx *llm.Context, plan llm.Plan, fragments []llm.ClauseFragment, execError string) ([]llm.ClauseEdit, error) {
	defer m.tr.end(m.tr.begin("simllm.repair_sql"))
	return m.inner.EditClauses(ctx, plan, fragments, execError)
}

// operatorOf names the pipeline operator each model call is made from.
var operatorOf = map[string]string{
	"simllm.reformulate":  "reformulation",
	"simllm.classify":     "intent_classification",
	"simllm.link_schema":  "schema_linking",
	"simllm.plan":         "planning",
	"simllm.generate_sql": "generation_loop",
	"simllm.repair_sql":   "generation_loop",
}

// tracedGenerate runs one engine call under a pipeline.generate span. The
// engine's own trace hook reports each operator's duration but not when it
// started, so the operator spans are laid end to end from the call's start
// and each is slid, within the slack, to contain the model spans recorded
// while it ran; those become its children.
func tracedGenerate(tr *tracer, eng *pipeline.Engine, question, evidence string) (*pipeline.Record, error) {
	root := tr.begin("pipeline.generate")
	var report *pipeline.Trace
	ctx := pipeline.WithTrace(context.Background(), func(t *pipeline.Trace) { report = t })
	rec, err := eng.GenerateContext(ctx, question, evidence)
	tr.end(root)
	if report == nil {
		return rec, err
	}
	calls := tr.childrenOf(root)
	cursor := tr.get(root).Start
	for _, op := range report.Ops {
		var kids []span
		for _, id := range calls {
			if s := tr.get(id); operatorOf[s.Name] == op.Op {
				kids = append(kids, s)
			}
		}
		start, dur := cursor, int64(op.Duration)
		if len(kids) > 0 {
			start = max(start, kids[len(kids)-1].End-dur)
			start = min(start, kids[0].Start)
		}
		id := tr.insert("pipeline.op."+op.Op, root, start, start+dur)
		for _, k := range kids {
			tr.reparent(k.ID, id)
		}
		cursor = start + dur
	}
	return rec, err
}
