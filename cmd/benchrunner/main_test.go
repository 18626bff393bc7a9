package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parityBaseline is a two-table record in the shape of BENCH_N.json.
func parityBaseline() benchRecord {
	return benchRecord{
		Seed:        1,
		ModelSeed:   42,
		DurationsMS: map[string]float64{"table_1": 310},
		Tables: map[string][]jsonRow{
			"table1": {
				{System: "CHESS", Simple: 64.51612903225806, Moderate: 39.285714285714285, Challenging: 27.27272727272727, All: 56.06060606060606},
				{System: "GenEdit", Simple: 68.81720430107527, Moderate: 42.857142857142854, Challenging: 36.36363636363637, All: 60.60606060606061},
			},
			"miner_convergence": {
				{System: "round 0", Simple: 0},
				{System: "round 1", Simple: 83.33333333333333, All: 83.33333333333333},
			},
		},
	}
}

// cloneRecord deep-copies a record through JSON, the way a run's record and a
// committed baseline meet in checkParity.
func cloneRecord(t *testing.T, r benchRecord) benchRecord {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out benchRecord
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func writeBaseline(t *testing.T, r benchRecord) string {
	t.Helper()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckParity(t *testing.T) {
	path := writeBaseline(t, parityBaseline())
	cases := []struct {
		name string
		edit func(r *benchRecord)
		want string // substring of the error; "" means the gate passes
	}{
		{"identical", func(*benchRecord) {}, ""},
		{"timings and extra tables are not gated", func(r *benchRecord) {
			r.DurationsMS["table_1"] = 9999
			r.Tables["extra"] = []jsonRow{{System: "GenEdit"}}
		}, ""},
		{"seed mismatch", func(r *benchRecord) { r.Seed = 2 }, "seed mismatch"},
		{"model seed mismatch", func(r *benchRecord) { r.ModelSeed = 7 }, "seed mismatch"},
		{"missing table", func(r *benchRecord) { delete(r.Tables, "miner_convergence") },
			`table "miner_convergence" not regenerated`},
		{"row count", func(r *benchRecord) { r.Tables["table1"] = r.Tables["table1"][:1] },
			`table "table1": 1 rows vs baseline 2`},
		{"one-bit drift in one cell", func(r *benchRecord) {
			row := &r.Tables["table1"][1]
			row.Moderate = math.Float64frombits(math.Float64bits(row.Moderate) ^ 1)
		}, `table "table1" row 1`},
		{"renamed system", func(r *benchRecord) { r.Tables["miner_convergence"][0].System = "round 9" },
			`table "miner_convergence" row 0`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := cloneRecord(t, parityBaseline())
			tc.edit(&run)
			err := checkParity(&run, path)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("gate passed, want a failure mentioning %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCheckParityReportsEveryDrift(t *testing.T) {
	run := cloneRecord(t, parityBaseline())
	run.Tables["table1"][0].All++
	delete(run.Tables, "miner_convergence")
	err := checkParity(&run, writeBaseline(t, parityBaseline()))
	if err == nil || !strings.HasPrefix(err.Error(), "2 drift(s)") {
		t.Fatalf("want both drifts reported, got %v", err)
	}
}

func TestCheckParityUnreadableBaseline(t *testing.T) {
	run := parityBaseline()
	if err := checkParity(&run, filepath.Join(t.TempDir(), "absent.json")); err == nil || !strings.Contains(err.Error(), "reading baseline") {
		t.Fatalf("missing file: got %v", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkParity(&run, bad); err == nil || !strings.Contains(err.Error(), "decoding baseline") {
		t.Fatalf("malformed file: got %v", err)
	}
}

// TestCommittedBaselineGatesItself decodes the baseline the parity gate runs
// against and checks that a record equal to it passes while a one-bit drift
// in any single cell fails.
func TestCommittedBaselineGatesItself(t *testing.T) {
	const path = "../../BENCH_7.json"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var base benchRecord
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.Tables) == 0 {
		t.Fatal("baseline has no tables")
	}
	if err := checkParity(&base, path); err != nil {
		t.Fatalf("baseline fails against itself: %v", err)
	}
	for name, rows := range base.Tables {
		for i := range rows {
			run := cloneRecord(t, base)
			cell := &run.Tables[name][i].All
			*cell = math.Float64frombits(math.Float64bits(*cell) ^ 1)
			if err := checkParity(&run, path); err == nil {
				t.Fatalf("table %q row %d: one-bit drift passed the gate", name, i)
			}
		}
	}
}
