// Feedbackloop walks the interactive flow of the paper's Fig. 3 as a CLI
// transcript: a question is answered wrongly (the knowledge set starts
// without the company glossary), the user gives feedback, the system
// recommends edits, the user stages them and regenerates, submits, the
// edits pass regression testing, a reviewer approves, and the previously
// failing query now returns the right answer — and stays fixed.
//
// The whole interactive session runs under one context: every generation —
// the initial answer, the staged regeneration and the regression replay —
// honors its deadline mid-pipeline, which is what lets a serving deployment
// put an SLA on the feedback workflow.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"genedit/internal/feedback"
	"genedit/internal/knowledge"
	"genedit/internal/pipeline"
	"genedit/internal/simllm"
	"genedit/internal/task"
	"genedit/internal/workload"
)

func main() {
	suite := workload.NewSuite(1)
	model := simllm.New(simllm.GenEditProfile(), suite.Registry, 42)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Start from a degraded knowledge set: query logs only, no terminology
	// documents — the state of a fresh deployment before SME feedback.
	in := suite.KB["sports_holdings"]
	in.Docs = nil
	kset, err := knowledge.Build(in)
	if err != nil {
		log.Fatal(err)
	}
	engine := pipeline.New(model, kset, suite.Databases["sports_holdings"], pipeline.DefaultConfig())

	// The live owner serves the engine, numbers the sessions, runs every
	// regression gate and merge and holds each change's state (in memory: no
	// persist step); the solver drives SME sessions on it, gated by the
	// database's first cases.
	solver := feedback.NewSolver(feedback.NewLive(engine, nil), feedback.NewRecommender(model), suite.Golden("sports_holdings", feedback.GoldenPerDB))

	var c *task.Case
	for _, cc := range suite.Cases {
		if cc.ID == "sports_holdings-s-our" {
			c = cc
		}
	}

	fmt.Println("== 1. user asks ==")
	fmt.Println("  ", c.Question)
	sess, err := solver.OpenContext(ctx, c.Question, "") // no evidence: fresh deployment
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== 2. generated SQL (wrong: no ownership filter) ==")
	fmt.Println("  ", sess.Record.FinalSQL)

	fmt.Println("\n== 3. user feedback ==")
	fb := "This response queries all sports organisations but I only care about our organisations."
	fmt.Println("  ", fb)
	rec, err := sess.Feedback(fb)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== 4. recommended edits (feedback operators 1-4) ==")
	for _, t := range rec.Targets {
		fmt.Printf("   target [%s %s]: %s\n", t.Kind, t.ID, t.Why)
	}
	for _, step := range rec.Plan {
		fmt.Println("   plan:", step)
	}
	for _, e := range rec.Edits {
		fmt.Println("   edit:", e.Describe())
	}

	fmt.Println("\n== 5. user stages the edits and regenerates ==")
	sess.Stage(rec.Edits...)
	regen, err := sess.RegenerateContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  ", regen.FinalSQL)

	fmt.Println("\n== 6. submit: regression testing ==")
	res, err := sess.SubmitContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   passed=%v (%s)\n", res.Passed, res.Detail)
	if !res.Passed {
		log.Fatal("the regression gate rejected the staged edits")
	}
	fmt.Printf("   gated on knowledge version %d\n", res.Pending.GatedVersion)

	// Had another merge moved the served version since the gate, approval
	// would replay the gate on it first and refuse a regressing change.
	fmt.Println("\n== 7. reviewer approves; edits merge into the knowledge set ==")
	if err := solver.Approve(res.Pending, "reviewer"); err != nil {
		log.Fatal(err)
	}
	st := solver.Engine().KnowledgeSet().Stats()
	fmt.Printf("   knowledge set now: %d instructions (version %d)\n", st.Instructions, st.Version)

	fmt.Println("\n== 8. the same question now succeeds on the live engine ==")
	after, err := solver.Engine().GenerateContext(ctx, c.Question, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  ", after.FinalSQL)

	fmt.Println("\n== 9. audit history (knowledge set library view) ==")
	hist := solver.Engine().KnowledgeSet().History()
	start := len(hist) - 5
	if start < 0 {
		start = 0
	}
	for _, ev := range hist[start:] {
		fmt.Printf("   #%03d v%03d %-10s %-12s %s\n", ev.Seq, ev.Version, ev.Op, ev.Kind, ev.Summary)
	}
}
