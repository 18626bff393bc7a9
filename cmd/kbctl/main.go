// Command kbctl is the knowledge set library (§4.2.2) as a CLI: it shows
// the components of a database's knowledge set with their provenance, the
// audit history, and demonstrates checkpoint/revert.
//
//	kbctl -db sports_holdings -show stats
//	kbctl -db sports_holdings -show examples | instructions | intents | terms
//	kbctl -db sports_holdings -show history
//	kbctl -db sports_holdings -show mined      auto-mined knowledge + audit trail
//	kbctl -db sports_holdings -demo-revert     scripted edit → checkpoint → revert
//	kbctl -db sports_holdings -demo-mine       scripted failures → mine → audit
//
// -store points kbctl at a daemon's durable knowledge directory, so -show
// mined audits exactly what a restarted geneditd would serve (mined merges
// are fsynced to the WAL like SME merges).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"genedit"
	"genedit/internal/knowledge"
	"genedit/internal/workload"
)

func main() {
	db := flag.String("db", "sports_holdings", "target database")
	show := flag.String("show", "stats", "what to display: stats, examples, instructions, intents, terms, history, checkpoints, mined")
	limit := flag.Int("n", 12, "max items to list")
	seed := flag.Uint64("seed", 1, "workload seed")
	store := flag.String("store", "", "durable knowledge directory (as passed to geneditd -store)")
	demoRevert := flag.Bool("demo-revert", false, "demonstrate checkpoint/revert on the set")
	demoMine := flag.Bool("demo-mine", false, "demonstrate the failure miner: serve recurring failures, mine, audit")
	flag.Parse()

	if *demoMine {
		if err := runMineDemo(*db, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// The service owns engine (and knowledge-set) construction, so kbctl
	// inspects exactly the set a served engine would use — including, with
	// -store, anything recovered from a daemon's WAL.
	opts := []genedit.Option{}
	if *store != "" {
		opts = append(opts, genedit.WithStorePath(*store))
	}
	svc := genedit.NewService(genedit.NewBenchmark(*seed), opts...)
	defer svc.Close()
	engine, err := svc.Engine(context.Background(), *db)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	set := engine.KnowledgeSet()

	if *demoRevert {
		runRevertDemo(set)
		return
	}

	switch *show {
	case "stats":
		st := set.Stats()
		fmt.Printf("database:     %s\n", *db)
		fmt.Printf("examples:     %d\n", st.Examples)
		fmt.Printf("instructions: %d\n", st.Instructions)
		fmt.Printf("intents:      %d\n", st.Intents)
		fmt.Printf("directives:   %d\n", st.Directives)
		fmt.Printf("version:      %d\n", st.Version)
		printStoreHealth(svc, *db)
	case "examples":
		for i, ex := range set.Examples() {
			if i >= *limit {
				fmt.Printf("... (%d more)\n", len(set.Examples())-i)
				break
			}
			fmt.Printf("%-8s [%s] %s\n         %s\n         source: %s\n",
				ex.ID, ex.Clause, ex.NL, ex.Pseudo, ex.Provenance.Source)
		}
	case "instructions":
		for _, ins := range set.Instructions() {
			fmt.Printf("%-8s %s\n", ins.ID, ins.Text)
			if ins.SQLHint != "" {
				fmt.Printf("         expected SQL: %s\n", ins.SQLHint)
			}
			if len(ins.Terms) > 0 {
				fmt.Printf("         defines: %v\n", ins.Terms)
			}
			fmt.Printf("         source: %s\n", ins.Provenance.Source)
		}
	case "intents":
		for _, it := range set.Intents() {
			fmt.Printf("%-12s %s (%d schema elements)\n", it.ID, it.Name, len(it.Elements))
		}
	case "terms":
		for _, t := range set.TermsIndex() {
			def := set.DefinesTerm(t)
			fmt.Printf("%-8s %s\n", t, def.Text)
		}
	case "history":
		for i, ev := range set.History() {
			if i >= *limit {
				fmt.Printf("... (%d more)\n", len(set.History())-i)
				break
			}
			fmt.Printf("#%03d v%03d %-10s %-12s %-10s %s\n",
				ev.Seq, ev.Version, ev.Op, ev.Kind, ev.EntityID, ev.Summary)
		}
	case "mined":
		printMinedAudit(set)
	case "checkpoints":
		cps := set.Checkpoints()
		if len(cps) == 0 {
			fmt.Println("no checkpoints")
		}
		for _, cp := range cps {
			fmt.Printf("cp-%d %-24s at version %d\n", cp.ID, cp.Name, cp.Version)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown -show %q\n", *show)
		os.Exit(2)
	}
}

// printStoreHealth appends a durable-store section to -show stats: the
// persisted sequence, snapshot version, compaction activity, and — most
// importantly — the two failure states an operator needs to see. A terminal
// store failure (a WAL rollback that could not restore the durable
// boundary; the store refuses further commits) and a compaction error
// (commits stay durable but the WAL is no longer being truncated) are
// otherwise silent in a CLI session.
func printStoreHealth(svc *genedit.Service, db string) {
	info, err := svc.Knowledge(context.Background(), db, 0)
	if err != nil || !info.Persisted {
		return
	}
	fmt.Printf("\nstore:\n")
	fmt.Printf("  persisted seq:    %d\n", info.PersistedSeq)
	fmt.Printf("  snapshot version: %d\n", info.SnapshotVersion)
	snap := svc.Metrics().Gather()
	fmt.Printf("  compactions:      %d (%d failed)\n",
		snap.CounterValue("genedit_kstore_compactions_total", db),
		snap.CounterValue("genedit_kstore_compaction_errors_total", db))
	switch {
	case info.StoreFailed != "":
		fmt.Printf("  health:           FAILED — %s\n", info.StoreFailed)
		fmt.Printf("                    (WAL rollback failed; store refuses further commits)\n")
	case info.CompactionErr != "":
		fmt.Printf("  health:           DEGRADED — compaction error: %s\n", info.CompactionErr)
		fmt.Printf("                    (commits remain durable; WAL is not being truncated)\n")
	default:
		fmt.Printf("  health:           ok\n")
	}
}

// printMinedAudit lists auto-mined knowledge with its audit trail: each
// live miner-authored instruction with its candidate ID and merge version,
// then the change events the miner committed. The gate verdict is implicit
// in presence — only candidates that passed the regression gate ever reach
// the set or its history; rejected candidates are discarded unmerged.
func printMinedAudit(set *knowledge.Set) {
	live := 0
	for _, ins := range set.Instructions() {
		if ins.Provenance.Editor != genedit.MinerEditor {
			continue
		}
		live++
		fmt.Printf("%-18s %s\n", ins.ID, ins.Text)
		if len(ins.Terms) > 0 {
			fmt.Printf("%18s defines: %v\n", "", ins.Terms)
		}
		fmt.Printf("%18s candidate %s, merged at version %d (passed regression gate)\n",
			"", ins.Provenance.FeedbackID, ins.Provenance.Version)
	}
	if live == 0 {
		fmt.Println("no mined knowledge in the live set")
	}
	fmt.Println()
	events := 0
	for _, ev := range set.History() {
		if ev.Editor != genedit.MinerEditor {
			continue
		}
		events++
		fmt.Printf("#%03d v%03d %-10s %-12s %-18s %s (candidate %s)\n",
			ev.Seq, ev.Version, ev.Op, ev.Kind, ev.EntityID, ev.Summary, ev.FeedbackID)
	}
	if events == 0 {
		fmt.Println("no mined merges in the audit history")
	}
}

// runMineDemo walks the self-improving loop end to end: a service over the
// miner workload serves the database's injected recurring exec failures,
// mines them, and prints the resulting audit — the same flow geneditd runs
// in the background under -miner.
func runMineDemo(db string, seed uint64) error {
	suite, injected := workload.NewMinerSuite(seed)
	svc := genedit.NewService(suite,
		genedit.WithModelSeed(42),
		genedit.WithGenerationCache(256),
		genedit.WithMiner())
	defer svc.Close()
	ctx := context.Background()

	served, failed := 0, 0
	for _, c := range injected {
		if c.DB != db {
			continue
		}
		resp, err := svc.Generate(ctx, genedit.Request{Database: c.DB, Question: c.Question, Evidence: c.Evidence})
		if err != nil {
			return err
		}
		served++
		if !resp.OK {
			failed++
		}
	}
	if served == 0 {
		return fmt.Errorf("database %q has no injected miner cases (try sports_holdings or retail_chain)", db)
	}
	fmt.Printf("served %d recurring questions, %d failed\n", served, failed)

	rep, err := svc.MineRound(ctx, db)
	if err != nil {
		return err
	}
	fmt.Printf("mining round: scanned=%d clusters=%d submitted=%d merged=%d rejected=%d unactionable=%d\n\n",
		rep.Scanned, rep.Clusters, rep.Submitted, rep.Merged, rep.Rejected, rep.Unactionable)

	engine, err := svc.Engine(ctx, db)
	if err != nil {
		return err
	}
	printMinedAudit(engine.KnowledgeSet())
	return nil
}

// runRevertDemo walks the library's edit → checkpoint → revert flow.
func runRevertDemo(set *knowledge.Set) {
	fmt.Printf("initial: %d instructions, version %d\n", set.Stats().Instructions, set.Version())
	cp := set.Checkpoint("demo-baseline")
	fmt.Printf("checkpoint cp-%d recorded\n", cp)

	err := set.Apply(knowledge.Edit{
		Op:   knowledge.EditInsert,
		Kind: knowledge.InstructionEntity,
		Instruction: &knowledge.Instruction{
			Text: "Demo: always round currency values to two decimals.",
		},
	}, "demo-sme", "fb-demo")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("after insert: %d instructions, version %d\n", set.Stats().Instructions, set.Version())

	if err := set.Revert(cp); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("after revert: %d instructions, version %d\n", set.Stats().Instructions, set.Version())
	last := set.History()[len(set.History())-1]
	fmt.Printf("history tail: %s %s (%s)\n", last.Op, last.EntityID, last.Summary)
}
