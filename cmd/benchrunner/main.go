// Command benchrunner regenerates every quantitative exhibit of the paper:
//
//	benchrunner -table 1            Table 1 (GenEdit vs baselines)
//	benchrunner -table 2            Table 2 (operator ablations)
//	benchrunner -table extra        design-choice ablations beyond Table 2
//	benchrunner -table edits        §4.2.3 edits-acceptance metrics
//	benchrunner -table improvement  continuous-improvement rounds (§4)
//	benchrunner -table miner        self-improving loop: failure mining convergence
//	benchrunner -table all          everything
//
// The -seed flag varies the synthetic workload; -modelseed varies the
// simulated model's deterministic draws. Paper reference numbers are printed
// alongside for comparison.
//
// -json writes the EX tables, wall-clock and allocation counts as a record;
// -baseline is the EX-parity gate: it compares the regenerated tables
// against a committed record (BENCH_7.json) bit for bit and exits non-zero
// on any drift. Serving throughput and latency are measured by the repo
// benchmark (benchmark/), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"genedit"
	"genedit/internal/bench"
	"genedit/internal/eval"
	"genedit/internal/feedback"
	"genedit/internal/task"
	"genedit/internal/workload"
)

var paperTable1 = `Paper Table 1 (BIRD-dev 10%):
Method                  Simple  Moderate  Challenging     All
--------------------------------------------------------------
CHESS                    65.43     64.81        58.33   64.62
MAC-SQL                  65.73     52.69        40.28   59.39
TA-SQL                   63.14     48.60        36.11   56.19
DAIL-SQL                 62.50     43.20        37.50   54.30
C3-SQL                   58.90     38.50        31.90   50.20
GenEdit                  69.89     39.29        36.36   60.61`

var paperTable2 = `Paper Table 2 (ablations):
Method                  Simple  Moderate  Challenging     All
--------------------------------------------------------------
GenEdit                  69.89     39.29        36.36   60.61
w/o Schema Linking       67.74     42.86        18.18   58.33
w/o Instructions         58.06     28.57        36.36   50.00
w/o Examples             69.89     35.71         9.09   59.09
w/o Pseudo-SQL           62.37     25.00        18.18   50.76
w/o Decomposition        66.67     46.43        18.18   58.33`

// jsonRow is one system's EX row in the -json output.
type jsonRow struct {
	System      string  `json:"system"`
	Simple      float64 `json:"ex_simple"`
	Moderate    float64 `json:"ex_moderate"`
	Challenging float64 `json:"ex_challenging"`
	All         float64 `json:"ex_all"`
}

// allocStat is a -benchmem-style allocation summary for one exhibit:
// heap allocation count and megabytes allocated while regenerating it
// (runtime.MemStats deltas, so background allocation is included — treat
// as a trajectory signal, not an exact figure).
type allocStat struct {
	Allocs  uint64  `json:"allocs"`
	AllocMB float64 `json:"alloc_mb"`
}

// benchRecord is the machine-readable result file -json writes; committed
// baselines (BENCH_0.json) give future PRs a perf and accuracy trajectory.
// The parity gate (checkParity) compares Tables only; the remaining fields
// are informational and may grow without invalidating old baselines.
type benchRecord struct {
	Seed        uint64               `json:"seed"`
	ModelSeed   uint64               `json:"model_seed"`
	DurationsMS map[string]float64   `json:"durations_ms"`
	AllocStats  map[string]allocStat `json:"alloc_stats"`
	Tables      map[string][]jsonRow `json:"tables"`
}

func jsonRows(reports []*eval.Report) []jsonRow {
	out := make([]jsonRow, 0, len(reports))
	for _, rep := range reports {
		out = append(out, jsonRow{
			System:      rep.System,
			Simple:      rep.EX(task.Simple),
			Moderate:    rep.EX(task.Moderate),
			Challenging: rep.EX(task.Challenging),
			All:         rep.EX(""),
		})
	}
	return out
}

func main() {
	table := flag.String("table", "all", "which exhibit to regenerate: 1, 2, extra, edits, improvement, miner, all")
	seed := flag.Uint64("seed", 1, "workload seed")
	modelSeed := flag.Uint64("modelseed", 42, "simulated-model seed")
	rounds := flag.Int("rounds", 4, "improvement rounds")
	jsonPath := flag.String("json", "", "also write results (EX tables + wall-clock) as JSON to this file")
	baseline := flag.String("baseline", "", "EX-parity gate: compare the regenerated EX tables against this committed JSON baseline and exit non-zero on any drift")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "creating cpu profile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "starting cpu profile:", err)
			os.Exit(1)
		}
		// Stopped explicitly before exit; error paths os.Exit and drop the
		// partial profile, which is fine for a diagnostics flag.
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	record := benchRecord{
		Seed:        *seed,
		ModelSeed:   *modelSeed,
		DurationsMS: make(map[string]float64),
		AllocStats:  make(map[string]allocStat),
		Tables:      make(map[string][]jsonRow),
	}

	suiteStart := time.Now()
	suite := workload.NewSuite(*seed)
	record.DurationsMS["suite_generation"] = float64(time.Since(suiteStart).Microseconds()) / 1000
	if err := suite.ValidateGold(); err != nil {
		fmt.Fprintln(os.Stderr, "workload validation failed:", err)
		os.Exit(1)
	}

	run := func(name string, fn func() error) {
		if *table != "all" && *table != name {
			return
		}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "table %s failed: %v\n", name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		record.DurationsMS["table_"+name] = float64(elapsed.Microseconds()) / 1000
		st := allocStat{
			Allocs:  after.Mallocs - before.Mallocs,
			AllocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		}
		record.AllocStats["table_"+name] = st
		fmt.Printf("[table %s: %s, %d allocs, %.1f MB allocated]\n\n",
			name, elapsed.Round(time.Millisecond), st.Allocs, st.AllocMB)
	}

	run("1", func() error {
		reports, err := bench.Table1(suite, *modelSeed)
		if err != nil {
			return err
		}
		record.Tables["table1"] = jsonRows(reports)
		fmt.Println(eval.FormatTable("Table 1 — execution accuracy on mini-BIRD (93/28/11 cases)", reports))
		rank := eval.Rank(reports, "GenEdit")
		total := len(reports)
		fmt.Printf("GenEdit ranks %d of %d compared systems by overall EX (paper: 2nd among open-source).\n\n", rank, total)
		fmt.Println(paperTable1)
		fmt.Println()
		return nil
	})

	run("2", func() error {
		reports, err := bench.RunAblations(suite, *modelSeed, bench.Table2Ablations())
		if err != nil {
			return err
		}
		record.Tables["table2"] = jsonRows(reports)
		fmt.Println(eval.FormatTable("Table 2 — operator ablations", reports))
		fmt.Println(paperTable2)
		fmt.Println()
		return nil
	})

	run("extra", func() error {
		reports, err := bench.RunAblations(suite, *modelSeed, bench.ExtraAblations())
		if err != nil {
			return err
		}
		record.Tables["extra"] = jsonRows(reports)
		fmt.Println(eval.FormatTable("Design-choice ablations (beyond the paper's Table 2)", reports))
		return nil
	})

	run("edits", func() error {
		stats, err := feedback.RunAcceptanceExperiment(suite, *modelSeed, 3)
		if err != nil {
			return err
		}
		fmt.Println("§4.2.3 — edits recommendation acceptance (simulated SMEs over all failed eval cases)")
		fmt.Println(stats)
		return nil
	})

	run("improvement", func() error {
		res, err := feedback.RunImprovementExperiment(suite, *modelSeed, *rounds, 20)
		if err != nil {
			return err
		}
		fmt.Println("Continuous improvement — EX per feedback round, starting from a degraded")
		fmt.Println("knowledge set (no instructions) and merging approved edits each round:")
		fmt.Println(res)
		fmt.Printf("audit history events across databases: %d\n\n", res.FinalHistoryLen)
		return nil
	})

	run("miner", func() error {
		rounds, err := genedit.RunMinerConvergence(*seed, *modelSeed, 3)
		if err != nil {
			return err
		}
		fmt.Println("Self-improving loop — EX over the injected recurring-failure families,")
		fmt.Println("measured at each round's start; the miner then clusters that round's")
		fmt.Println("failures and merges whatever passes the regression gate:")
		fmt.Printf("%-8s %8s %8s %9s %13s\n", "round", "EX", "merged", "rejected", "unactionable")
		rows := make([]jsonRow, 0, len(rounds))
		for _, r := range rounds {
			fmt.Printf("%-8d %7.1f%% %8d %9d %13d\n", r.Round, r.EX, r.Merged, r.Rejected, r.Unactionable)
			// The injected families are all Simple-difficulty cases, so the
			// round's EX doubles as its Simple and overall EX.
			rows = append(rows, jsonRow{System: fmt.Sprintf("round %d", r.Round), Simple: r.EX, All: r.EX})
		}
		fmt.Println()
		record.Tables["miner_convergence"] = rows
		return nil
	})

	if *table == "all" || *table == "counts" {
		fmt.Printf("eval set: %d simple / %d moderate / %d challenging (%d total) across %d databases\n",
			len(suite.CasesByDifficulty(task.Simple)),
			len(suite.CasesByDifficulty(task.Moderate)),
			len(suite.CasesByDifficulty(task.Challenging)),
			len(suite.Cases), workload.Domains())
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(record, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "encoding json results:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "writing json results:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}

	if *baseline != "" {
		if err := checkParity(&record, *baseline); err != nil {
			fmt.Fprintln(os.Stderr, "EX parity gate FAILED:", err)
			os.Exit(1)
		}
		fmt.Printf("EX parity gate passed: tables bit-identical to %s\n", *baseline)
	}
}

// checkParity diffs the regenerated EX tables against a committed baseline
// record. Every table present in the baseline must have been regenerated
// this run (so -baseline is only meaningful with -table all or a superset)
// and must match row-for-row, bit-for-bit — wall-clock durations are
// deliberately excluded. This is the CI gate that keeps API refactors from
// silently drifting the paper's exhibits.
func checkParity(record *benchRecord, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base benchRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("decoding baseline: %w", err)
	}
	if base.Seed != record.Seed || base.ModelSeed != record.ModelSeed {
		return fmt.Errorf("seed mismatch: run (%d, %d) vs baseline (%d, %d) — rerun with -seed %d -modelseed %d",
			record.Seed, record.ModelSeed, base.Seed, base.ModelSeed, base.Seed, base.ModelSeed)
	}
	names := make([]string, 0, len(base.Tables))
	for name := range base.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var drift []string
	for _, name := range names {
		got, ok := record.Tables[name]
		if !ok {
			drift = append(drift, fmt.Sprintf("table %q not regenerated this run", name))
			continue
		}
		want := base.Tables[name]
		if len(got) != len(want) {
			drift = append(drift, fmt.Sprintf("table %q: %d rows vs baseline %d", name, len(got), len(want)))
			continue
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				drift = append(drift, fmt.Sprintf("table %q row %d: %+v vs baseline %+v", name, i, got[i], want[i]))
			}
		}
	}
	if len(drift) > 0 {
		return fmt.Errorf("%d drift(s) vs %s:\n  drift: %s", len(drift), path, strings.Join(drift, "\n  drift: "))
	}
	return nil
}
