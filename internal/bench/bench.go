// Package bench wires the workload, pipeline, baselines and feedback module
// into the experiments that regenerate the paper's tables. Both
// cmd/benchrunner and the repository-level benchmarks call into it.
package bench

import (
	"context"
	"fmt"

	"genedit/internal/eval"
	"genedit/internal/pipeline"
	"genedit/internal/simllm"
	"genedit/internal/task"
	"genedit/internal/workload"
)

// GenEditSystem adapts the pipeline (one engine per database, as each
// database is a separate "company" with its own knowledge set) to
// eval.System.
type GenEditSystem struct {
	name    string
	engines map[string]*pipeline.Engine
}

// NewGenEditSystem builds engines over every suite database, running the
// pre-processing phase (knowledge-set construction) for each.
func NewGenEditSystem(name string, suite *workload.Suite, cfg pipeline.Config, seed uint64) (*GenEditSystem, error) {
	g := &GenEditSystem{name: name, engines: make(map[string]*pipeline.Engine)}
	model := simllm.New(simllm.GenEditProfile(), suite.Registry, seed)
	for _, dbName := range workload.DomainNames() {
		kset, err := suite.BuildKnowledge(dbName)
		if err != nil {
			return nil, fmt.Errorf("building knowledge for %s: %w", dbName, err)
		}
		g.engines[dbName] = pipeline.New(model, kset, suite.Databases[dbName], cfg)
	}
	return g, nil
}

// Name implements eval.System.
func (g *GenEditSystem) Name() string { return g.name }

// Generate implements eval.System.
func (g *GenEditSystem) Generate(c *task.Case) (string, error) {
	return g.GenerateContext(context.Background(), c)
}

// GenerateContext implements eval.ContextSystem: RunContext deadlines
// propagate into the pipeline mid-case.
func (g *GenEditSystem) GenerateContext(ctx context.Context, c *task.Case) (string, error) {
	engine, ok := g.engines[c.DB]
	if !ok {
		return "", fmt.Errorf("%s: unknown database %q", g.name, c.DB)
	}
	rec, err := engine.GenerateContext(ctx, c.Question, c.Evidence)
	if err != nil {
		return "", err
	}
	return rec.FinalSQL, nil
}

// Table1 reproduces the paper's Table 1: GenEdit vs the five baselines on
// the full eval set. Report order matches the paper's rows.
func Table1(suite *workload.Suite, seed uint64) ([]*eval.Report, error) {
	return Table1Context(context.Background(), suite, seed)
}

// Table1Context is Table1 with cancellation threading into every evaluated
// case.
func Table1Context(ctx context.Context, suite *workload.Suite, seed uint64) ([]*eval.Report, error) {
	runner := eval.NewRunner(suite.Databases)
	var reports []*eval.Report
	for _, b := range AllBaselines(suite, seed) {
		rep, err := runner.RunContext(ctx, b, suite.Cases)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	genedit, err := NewGenEditSystem("GenEdit", suite, pipeline.DefaultConfig(), seed)
	if err != nil {
		return nil, err
	}
	rep, err := runner.RunContext(ctx, genedit, suite.Cases)
	if err != nil {
		return nil, err
	}
	reports = append(reports, rep)
	return reports, nil
}

// Ablation names one Table 2 row.
type Ablation struct {
	Name string
	Cfg  pipeline.Config
}

// Table2Ablations returns the paper's five ablations over the default
// configuration.
func Table2Ablations() []Ablation {
	base := pipeline.DefaultConfig()
	mk := func(name string, mod func(*pipeline.Config)) Ablation {
		cfg := base
		mod(&cfg)
		return Ablation{Name: name, Cfg: cfg}
	}
	return []Ablation{
		{Name: "GenEdit", Cfg: base},
		mk("w/o Schema Linking", func(c *pipeline.Config) { c.DisableSchemaLinking = true }),
		mk("w/o Instructions", func(c *pipeline.Config) { c.DisableInstructions = true }),
		mk("w/o Examples", func(c *pipeline.Config) { c.DisableExamples = true }),
		mk("w/o Pseudo-SQL", func(c *pipeline.Config) { c.DisablePseudoSQL = true }),
		mk("w/o Decomposition", func(c *pipeline.Config) { c.DisableDecomposition = true }),
	}
}

// ExtraAblations are the design-choice ablations DESIGN.md calls out beyond
// Table 2.
func ExtraAblations() []Ablation {
	base := pipeline.DefaultConfig()
	mk := func(name string, mod func(*pipeline.Config)) Ablation {
		cfg := base
		mod(&cfg)
		return Ablation{Name: name, Cfg: cfg}
	}
	return []Ablation{
		{Name: "GenEdit", Cfg: base},
		mk("w/o Context Expansion", func(c *pipeline.Config) { c.DisableContextExpansion = true }),
		mk("w/o Planning", func(c *pipeline.Config) { c.DisablePlanning = true }),
		mk("w/o Self-Correction", func(c *pipeline.Config) { c.MaxAttempts = 1 }),
		mk("k=1 retry", func(c *pipeline.Config) { c.MaxAttempts = 1 }),
		mk("k=2 retries", func(c *pipeline.Config) { c.MaxAttempts = 2 }),
	}
}

// RunAblations evaluates each ablation configuration over the suite.
func RunAblations(suite *workload.Suite, seed uint64, ablations []Ablation) ([]*eval.Report, error) {
	return RunAblationsContext(context.Background(), suite, seed, ablations)
}

// RunAblationsContext is RunAblations with cancellation threading into every
// evaluated case.
func RunAblationsContext(ctx context.Context, suite *workload.Suite, seed uint64, ablations []Ablation) ([]*eval.Report, error) {
	runner := eval.NewRunner(suite.Databases)
	var reports []*eval.Report
	for _, ab := range ablations {
		sys, err := NewGenEditSystem(ab.Name, suite, ab.Cfg, seed)
		if err != nil {
			return nil, err
		}
		rep, err := runner.RunContext(ctx, sys, suite.Cases)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
