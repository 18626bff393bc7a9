package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// contract is the part of BENCHMARK.json that -compare reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// worsening is how much worse b is than a, as a share of a, for a metric
// whose better direction is given; negative when b is better. The contract
// keeps end-to-end metrics away from 0, so a is a usable base.
func worsening(a, b float64, better string) float64 {
	if a == b {
		return 0
	}
	d := (b - a) / a
	if better == "higher" {
		d = -d
	}
	return d
}

// compareFiles prints, for every workload and end-to-end metric of two
// result files, how much worse the second is than the first against the
// metric's bound, and reports whether every pair is within its bound.
func compareFiles(contractPath, pathA, pathB string, w io.Writer) (bool, error) {
	var c contract
	if err := readJSON(contractPath, &c); err != nil {
		return false, err
	}
	var a, b combined
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	if a.Env != b.Env {
		fmt.Fprintf(w, "note: environments differ:\n  %+v\n  %+v\n", a.Env, b.Env)
	}
	within := true
	fmt.Fprintf(w, "%-13s %-16s %14s %14s %9s %7s\n", "workload", "metric", pathA, pathB, "worse by", "bound")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-13s missing from a result file\n", wl.name)
			within = false
			continue
		}
		for _, m := range c.EndToEnd {
			va, vb := ra.Result.Metrics[m.Name].Value, rb.Result.Metrics[m.Name].Value
			d := worsening(va, vb, m.Better)
			mark := ""
			if d > m.Bound {
				mark, within = "  OUTSIDE", false
			}
			fmt.Fprintf(w, "%-13s %-16s %14.4f %14.4f %+8.2f%% %6.1f%%%s\n", wl.name, m.Name, va, vb, 100*d, 100*m.Bound, mark)
		}
	}
	return within, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
