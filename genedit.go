// Package genedit is the public facade of the GenEdit reproduction — a
// from-scratch Go implementation of "GenEdit: Compounding Operators and
// Continuous Improvement to Tackle Text-to-SQL in the Enterprise"
// (CIDR 2025).
//
// The facade wires the three things a downstream user needs:
//
//   - a Benchmark (the synthetic mini-BIRD suite with eight enterprise
//     databases, query logs and terminology documents);
//   - a Service (the long-lived, multi-tenant serving layer: one lazily
//     built shared Engine per database, concurrent and batch generation,
//     context cancellation, per-request tracing);
//   - a Solver per database (the continuous-improvement workflow:
//     feedback → recommended edits → staging → regression testing →
//     approval → merge, with merges persisted and hot-swapped into
//     serving when the service is durable).
//
// Quick use:
//
//	suite := genedit.NewBenchmark(1)
//	svc := genedit.NewService(suite, genedit.WithModelSeed(42))
//	resp, err := svc.Generate(ctx, genedit.Request{
//		Database: "sports_holdings",
//		Question: "top 5 sports organisations by total revenue in Canada for 2023",
//	})
//	if err != nil { ... } // ErrUnknownDatabase, ErrCanceled, operator errors
//	fmt.Println(resp.SQL)
//
// The Service is safe for concurrent use and honors context deadlines
// mid-pipeline; GenerateBatch fans many requests out over a bounded worker
// pool. Construction is configured with functional options (WithConfig,
// WithModelSeed, WithWorkers, WithStatementCacheSize, WithTrace,
// WithStorePath).
//
// WithStorePath makes the knowledge sets durable: each database is backed
// by a crash-safe WAL + snapshot store (internal/kstore), approved SME
// edits are fsynced before the serving engine hot-swaps, and a restarted
// service recovers the exact knowledge version and audit history. See
// DESIGN.md, "Knowledge persistence & online feedback".
//
// See DESIGN.md for the system inventory (including the "Service layer"
// section) and EXPERIMENTS.md for the paper-vs-measured record of every
// table the harness regenerates.
package genedit

import (
	"genedit/internal/eval"
	"genedit/internal/feedback"
	"genedit/internal/knowledge"
	"genedit/internal/pipeline"
	"genedit/internal/sqlexec"
	"genedit/internal/task"
	"genedit/internal/workload"
)

// Re-exported core types. The aliases keep the public API surface in one
// place while the implementation lives in internal packages.
type (
	// Config controls the pipeline, including the Table 2 ablation
	// switches.
	Config = pipeline.Config
	// Engine is the generation pipeline bound to one database and
	// knowledge set.
	Engine = pipeline.Engine
	// Record is a full generation trace (context, plan, attempts, result).
	Record = pipeline.Record
	// Result is a materialized query result (Record.Result, Response data).
	Result = sqlexec.Result
	// Benchmark is the synthetic mini-BIRD suite.
	Benchmark = workload.Suite
	// Case is one benchmark question with gold SQL and requirement tags.
	Case = task.Case
	// KnowledgeSet is the company-specific materialized view of examples,
	// instructions and intents.
	KnowledgeSet = knowledge.Set
	// Edit is one change to a knowledge set.
	Edit = knowledge.Edit
	// ChangeEvent is one knowledge-set audit record: full-fidelity (it
	// carries the entity payload), so a log of events is replayable — the
	// record format of the durable store's WAL (WithStorePath).
	ChangeEvent = knowledge.ChangeEvent
	// Solver is the interactive feedback workflow.
	Solver = feedback.Solver
	// Report aggregates evaluation outcomes for one system.
	Report = eval.Report
)

// DefaultConfig returns the production pipeline configuration (k=3
// regeneration attempts, context expansion on, all operators enabled).
func DefaultConfig() Config { return pipeline.DefaultConfig() }

// NewBenchmark generates the synthetic benchmark with the given seed:
// 93 simple / 28 moderate / 11 challenging cases over eight databases.
func NewBenchmark(seed uint64) *Benchmark { return workload.NewSuite(seed) }
