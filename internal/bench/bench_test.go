package bench

import (
	"testing"

	"genedit/internal/eval"
	"genedit/internal/task"
	"genedit/internal/workload"
)

// TestTable1ReproducesPaperShape asserts the qualitative claims of the
// paper's Table 1 hold in the reproduction: the ranking of systems, GenEdit
// winning Simple, and GenEdit's exact overall EX.
func TestTable1ReproducesPaperShape(t *testing.T) {
	suite := workload.NewSuite(1)
	reports, err := Table1(suite, 42)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*eval.Report)
	for _, rep := range reports {
		byName[rep.System] = rep
	}

	// GenEdit's overall EX matches the paper to the decimal: 80/132 = 60.61.
	if got := byName["GenEdit"].EX(""); got < 60.60 || got > 60.62 {
		t.Errorf("GenEdit EX(all) = %.2f, want 60.61", got)
	}
	// GenEdit's challenging EX matches the paper: 4/11 = 36.36.
	if got := byName["GenEdit"].EX(task.Challenging); got < 36.35 || got > 36.37 {
		t.Errorf("GenEdit EX(challenging) = %.2f, want 36.36", got)
	}

	// CHESS leads overall; GenEdit is second (the paper's ranking claim).
	if eval.Rank(reports, "CHESS") != 1 {
		t.Errorf("CHESS rank = %d, want 1", eval.Rank(reports, "CHESS"))
	}
	if eval.Rank(reports, "GenEdit") != 2 {
		t.Errorf("GenEdit rank = %d, want 2", eval.Rank(reports, "GenEdit"))
	}

	// GenEdit wins the Simple tier against every baseline.
	for _, name := range []string{"CHESS", "MAC-SQL", "TA-SQL", "DAIL-SQL", "C3-SQL"} {
		if byName[name].EX(task.Simple) >= byName["GenEdit"].EX(task.Simple) {
			t.Errorf("%s beats GenEdit on Simple (%.2f >= %.2f)",
				name, byName[name].EX(task.Simple), byName["GenEdit"].EX(task.Simple))
		}
	}

	// The baseline ordering matches the paper: MAC > TA > DAIL > C3 overall.
	order := []string{"MAC-SQL", "TA-SQL", "DAIL-SQL", "C3-SQL"}
	for i := 1; i < len(order); i++ {
		if byName[order[i-1]].EX("") < byName[order[i]].EX("") {
			t.Errorf("ordering violated: %s (%.2f) < %s (%.2f)",
				order[i-1], byName[order[i-1]].EX(""), order[i], byName[order[i]].EX(""))
		}
	}
}

// TestTable2ReproducesPaperShape asserts Table 2's qualitative structure:
// instructions are the largest ablation drop, pseudo-SQL the second;
// examples the smallest; removing schema linking or decomposition HELPS
// Moderate while collapsing Challenging.
func TestTable2ReproducesPaperShape(t *testing.T) {
	suite := workload.NewSuite(1)
	reports, err := RunAblations(suite, 42, Table2Ablations())
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*eval.Report)
	for _, rep := range reports {
		byName[rep.System] = rep
	}
	base := byName["GenEdit"]
	drop := func(name string) float64 { return base.EX("") - byName[name].EX("") }

	if drop("w/o Instructions") <= drop("w/o Schema Linking") ||
		drop("w/o Instructions") <= drop("w/o Examples") ||
		drop("w/o Instructions") <= drop("w/o Decomposition") {
		t.Error("instructions should be the largest ablation drop")
	}
	if drop("w/o Pseudo-SQL") <= drop("w/o Examples") {
		t.Error("pseudo-SQL should cost more than examples")
	}
	if drop("w/o Examples") > 3.5 {
		t.Errorf("examples drop = %.2f, should be small (paper: 1.52)", drop("w/o Examples"))
	}
	if drop("w/o Examples") >= drop("w/o Pseudo-SQL") || drop("w/o Examples") >= drop("w/o Instructions") {
		t.Error("examples should be the cheapest of the prompt-content ablations")
	}

	// Removing schema linking collapses Challenging (the paper also reports
	// a small Moderate improvement; in this reproduction the Moderate shift
	// is within one-case noise).
	if byName["w/o Schema Linking"].EX(task.Challenging) >= base.EX(task.Challenging) {
		t.Error("w/o Schema Linking should collapse Challenging")
	}

	// Removing decomposition helps Moderate but hurts Challenging.
	if byName["w/o Decomposition"].EX(task.Moderate) <= base.EX(task.Moderate) {
		t.Error("w/o Decomposition should improve Moderate (the paper's most surprising row)")
	}
	if byName["w/o Decomposition"].EX(task.Challenging) >= base.EX(task.Challenging) {
		t.Error("w/o Decomposition should hurt Challenging")
	}

	// Removing examples collapses Challenging (pseudo-SQL loses grounding).
	if byName["w/o Examples"].EX(task.Challenging) >= base.EX(task.Challenging) {
		t.Error("w/o Examples should collapse Challenging")
	}
}

// TestExtraAblations checks the design-choice ablations behave sanely:
// disabling self-correction or retries can only hurt.
func TestExtraAblations(t *testing.T) {
	suite := workload.NewSuite(1)
	reports, err := RunAblations(suite, 42, ExtraAblations())
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*eval.Report)
	for _, rep := range reports {
		byName[rep.System] = rep
	}
	base := byName["GenEdit"].EX("")
	if byName["w/o Self-Correction"].EX("") > base {
		t.Error("removing self-correction should not improve EX")
	}
	if byName["k=1 retry"].EX("") > base {
		t.Error("fewer retries should not improve EX")
	}
	if byName["w/o Planning"].EX("") > base {
		t.Error("removing planning should not improve EX")
	}
}

func TestGenEditSystemUnknownDatabase(t *testing.T) {
	suite := workload.NewSuite(1)
	sys, err := NewGenEditSystem("g", suite, Table2Ablations()[0].Cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Generate(&task.Case{ID: "x", DB: "nope", Question: "q"}); err == nil {
		t.Error("unknown database should error")
	}
}
