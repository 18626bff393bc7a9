package sqlexec_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"genedit/internal/sqlexec"
	"genedit/internal/workload"
)

// Result pins: every statement the workload executes as ground truth — the
// gold SQL of NewSuite(1) and the source SQL of each database's knowledge
// examples — with its row count and an order-insensitive digest of its
// columns and rows, values compared by kind and bits. EX compares a
// prediction with gold on the same executor, so a change to the executor
// that moves both together keeps every EX table bit-identical; these pins
// do not move with it.

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/workload_results.txt from the current executor")

const pinsFile = "testdata/workload_results.txt"

// workloadStatements lists the pinned statements in a fixed order: gold SQL
// in case order, then each database's example source SQL, databases sorted
// by name. Repeats stay, so the count is what the workload executes.
func workloadStatements(t *testing.T, suite *workload.Suite) [][2]string {
	t.Helper()
	var out [][2]string
	for _, c := range suite.Cases {
		out = append(out, [2]string{c.DB, c.GoldSQL})
	}
	names := make([]string, 0, len(suite.Databases))
	for name := range suite.Databases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, db := range names {
		kset, err := suite.BuildKnowledge(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range kset.Examples() {
			if ex.SourceSQL != "" {
				out = append(out, [2]string{db, ex.SourceSQL})
			}
		}
	}
	return out
}

// resultPin renders one statement's outcome: "<rows> <digest>" for a
// result, "error <digest of the text>" for a failure.
func resultPin(res *sqlexec.Result, err error) string {
	h := sha256.New()
	if err != nil {
		h.Write([]byte(err.Error()))
		return "error " + hex.EncodeToString(h.Sum(nil))[:16]
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		var sb strings.Builder
		for _, v := range r {
			fmt.Fprintf(&sb, "%d:%d:%x:%s:%t|", v.K, v.I, math.Float64bits(v.F), strconv.Quote(v.S), v.B)
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	fmt.Fprintf(h, "%q\n", res.Columns)
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%d %s", len(res.Rows), hex.EncodeToString(h.Sum(nil))[:16])
}

// TestWorkloadResultPins runs every pinned statement on a fresh executor
// per database and compares each outcome with its line in the pins file.
// Regenerate with: go test -run TestWorkloadResultPins ./internal/sqlexec -update-pins
func TestWorkloadResultPins(t *testing.T) {
	stmts := workloadStatements(t, paritySuite)
	execs := map[string]*sqlexec.Executor{}
	lines := make([]string, len(stmts))
	for i, s := range stmts {
		if execs[s[0]] == nil {
			execs[s[0]] = sqlexec.New(paritySuite.Databases[s[0]])
		}
		res, err := execs[s[0]].Query(s[1])
		lines[i] = fmt.Sprintf("%s %s %s", s[0], resultPin(res, err), strconv.Quote(s[1]))
	}
	if *updatePins {
		if err := os.WriteFile(pinsFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(pinsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Fatalf("%d pinned statements, the workload executes %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("statement %d moved:\n  got:  %s\n  want: %s", i, lines[i], want[i])
		}
	}
}
