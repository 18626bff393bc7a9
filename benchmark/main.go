// Command benchmark is the repository's benchmark: five workloads over the
// serving, feedback and evaluation paths, ten end-to-end metrics from an
// untraced run and the per-layer metrics of a traced one. README.md in this
// directory is the glossary; BENCHMARK.json at the repository root is the
// contract (names, units, directions, regression bounds).
//
//	go run ./benchmark                        every workload, untraced and traced, each in a child process
//	go run ./benchmark -workload serve_cold   one workload in this process; -trace 1 for the traced run
//	go run ./benchmark -compare a.json b.json two result files against the bounds in BENCHMARK.json
//
// The last line of standard output of a -workload run is one JSON object:
// correct, attempted, failed and the metrics of the run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// outDir receives span files, per-run records and the combined result; it
// carries its own .gitignore. Paths are relative to the repository root, the
// directory the benchmark is run from.
const outDir = "benchmark/out"

// An untraced run sets the workload up between minSetups and maxSetups
// times, stopping once another set-up would overrun setupBudget seconds.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2.0
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a -workload run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// environment is recorded with every result, so numbers are only ever
// compared between like machines and settings.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	ModelSeed  uint64  `json:"model_seed"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
}

// check is one output verification.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runRecord is everything one -workload run produced; it is written to
// outDir and merged into the combined result by a run of every workload.
type runRecord struct {
	Workload string      `json:"workload"`
	Traced   bool        `json:"traced"`
	Env      environment `json:"env"`
	Result   result      `json:"result"`
	// Samples states, per metric, the measurements behind it: ops of the
	// timed phase, samples beyond each percentile, spans per layer.
	Samples map[string]int `json:"samples"`
	// Counts are exact per-run tallies (ops by outcome, merges, pipeline
	// runs) that must repeat between runs of one commit.
	Counts map[string]int `json:"counts"`
	// Segments is the timed phase of an untraced run, segment by segment; the
	// timing metrics are their quiet-side quartiles. WholePhase is the same
	// four metrics over every op of the phase, for reading beside them: it
	// includes whatever the host did to the run.
	Segments   []segment          `json:"segments,omitempty"`
	WholePhase map[string]float64 `json:"whole_phase,omitempty"`
	// Digest fingerprints the per-input outputs (case id and SQL).
	Digest string  `json:"digest"`
	Checks []check `json:"checks"`
	WallS  float64 `json:"wall_s"`
}

// runEnv is what a workload is given to run with.
type runEnv struct {
	seed      uint64
	modelSeed uint64
	clients   int
	length    time.Duration
}

// workload is one set of inputs the benchmark runs. A run calls setUp (an
// untraced run several times, each discarding the state before it), then
// either measure or traced, then verify, then tearDown.
type workloadRunner interface {
	// setUp generates the inputs, builds the system, and runs the warm pass
	// that pins the expected output of every input.
	setUp() error
	// expectOps estimates the timed phase's op count, to size buffers.
	expectOps() int
	// passOps is how many ops make one pass over the inputs set up.
	passOps() int
	// measure runs the untraced timed phase on h.
	measure(h *harness) error
	// traced runs the traced phases and fills the per-layer metrics; the
	// returned phase is its untraced part, for attempted/failed.
	traced(tr *tracer, out *layerValues) (phaseResult, error)
	// verify checks the outputs, untimed, and returns ex_share and the
	// outputs' digest.
	verify(v *verifier) (exShare float64, digest string)
	tearDown()
}

var workloads = []struct {
	name string
	make func(env runEnv) workloadRunner
}{
	{"serve_cold", func(env runEnv) workloadRunner { return newServing("serve_cold", env) }},
	{"serve_hot", func(env runEnv) workloadRunner { return newServing("serve_hot", env) }},
	{"serve_scaled", func(env runEnv) workloadRunner { return newServing("serve_scaled", env) }},
	{"edit_loop", func(env runEnv) workloadRunner { return newEditLoop(env) }},
	{"exhibits", func(env runEnv) workloadRunner { return newExhibits(env) }},
}

// verifier collects a run's output checks.
type verifier struct {
	checks []check
	counts map[string]int // exact tallies the workload wants on record
	phase  *phaseResult   // the timed (untraced) phase the run measured
}

func (v *verifier) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	v.checks = append(v.checks, c)
}

func (v *verifier) ok() bool {
	for _, c := range v.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func main() {
	name := flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	seed := flag.Uint64("seed", 1, "workload seed: data, request order and SME draws derive from it")
	modelSeed := flag.Uint64("modelseed", 42, "simulated-model seed")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	clients := flag.Int("clients", 0, "closed-loop clients (0 = min(2, cores)); more clients than cores is refused")
	compare := flag.Bool("compare", false, "compare two result files (arguments) against the bounds in BENCHMARK.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		ok, err := compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *clients == 0 {
		*clients = min(2, runtime.NumCPU())
	}
	if *clients > runtime.NumCPU() {
		fatal(fmt.Errorf("%d clients on %d cores: a closed loop with more clients than cores measures the scheduler", *clients, runtime.NumCPU()))
	}
	if *seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	if _, err := os.Stat(filepath.Dir(outDir)); err != nil {
		fatal(fmt.Errorf("run from the repository root: %w", err))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       *seed,
		ModelSeed:  *modelSeed,
		Clients:    *clients,
		Seconds:    *seconds,
	}

	if *name == "" {
		if err := runAll(env); err != nil {
			fatal(err)
		}
		return
	}
	for _, w := range workloads {
		if w.name != *name {
			continue
		}
		rec, err := runOne(w.name, w.make(runEnv{
			seed: *seed, modelSeed: *modelSeed, clients: *clients,
			length: time.Duration(*seconds * float64(time.Second)),
		}), env, *trace != 0)
		if err != nil {
			fatal(err)
		}
		if err := writeJSON(recordPath(w.name, *trace != 0), rec); err != nil {
			fatal(err)
		}
		printRecord(rec)
		line, err := json.Marshal(rec.Result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		return
	}
	fatal(fmt.Errorf("unknown workload %q", *name))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// commit is the revision the binary was built from when the build recorded
// one (go run in a git checkout does), else the checkout's HEAD when the
// working directory is itself a git repository, else "unknown".
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

func recordPath(workload string, traced bool) string {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	return filepath.Join(outDir, workload+"."+kind+".json")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runOne runs one workload in this process, untraced or traced.
func runOne(name string, w workloadRunner, env environment, traced bool) (*runRecord, error) {
	began := time.Now()
	rec := &runRecord{
		Workload: name, Traced: traced, Env: env,
		Counts: make(map[string]int),
		Result: result{Metrics: make(map[string]value)},
	}
	defer w.tearDown()

	// Set-up is repeated and setup_s is the median: at least minSetups times,
	// and for a short set-up until setupBudget is spent, so that a tenth of a
	// second is not judged on three samples. Like the timed phase's metrics,
	// each set-up's time is scaled to the reference machine speed, by the
	// calibration kernel run while it lasts.
	var setups []float64
	for spent := 0.0; ; {
		start := time.Now()
		calUs, err := calibrateDuring(calEverySetup, w.setUp)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		took := time.Since(start).Seconds()
		setups = append(setups, took*machineSpeed(calUs))
		spent += took
		if traced || len(setups) == maxSetups || len(setups) >= minSetups && spent+took > setupBudget {
			break
		}
		w.tearDown()
		runtime.GC() // the discarded set-up is not the next one's heap
	}

	var phase phaseResult
	defs, values := endToEnd, make(map[string]float64)
	v := &verifier{counts: make(map[string]int)}
	if traced {
		tr := newTracer()
		layers := newLayerValues()
		var err error
		if phase, err = w.traced(tr, layers); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", name, err)
		}
		defs, values, rec.Samples = perLayer, layers.values, layers.samples
		rec.Samples["spans"] = len(tr.spans)
		if err := writeJSONL(filepath.Join(outDir, name+".spans.jsonl"), tr.spans); err != nil {
			return nil, err
		}
	} else {
		h := newHarness(env.Clients, time.Duration(env.Seconds*float64(time.Second)), w.expectOps(), w.passOps())
		if err := w.measure(h); err != nil {
			return nil, fmt.Errorf("%s: timed phase: %w", name, err)
		}
		phase = h.result()
		values, rec.Samples = phase.endToEnd()
		rec.Segments, rec.WholePhase = phase.segs, phase.whole()
		values["setup_s"] = median(setups)
		rec.Samples["setup_s"] = len(setups)
	}
	v.check("no op returned an output other than the one pinned for its input", phase.wrong == 0, "%d of %d ops", phase.wrong, phase.ops)

	v.phase = &phase
	values["ex_share"], rec.Digest = w.verify(v)
	for _, m := range defs {
		rec.Result.Metrics[m.Name] = value{values[m.Name], m.Unit}
	}
	rec.Checks = v.checks
	rec.Result.Correct = v.ok()
	rec.Result.Attempted = phase.ops
	rec.Result.Failed = phase.failed
	rec.Counts["ops"] = phase.ops
	rec.Counts["failed"] = phase.failed
	rec.Counts["not_ok"] = phase.notOK
	for k, n := range v.counts {
		rec.Counts[k] = n
	}
	rec.WallS = time.Since(began).Seconds()
	return rec, nil
}

// printRecord prints every metric by name with its unit, then the checks.
func printRecord(rec *runRecord) {
	kind := "untraced"
	if rec.Traced {
		kind = "traced"
	}
	fmt.Printf("== %s (%s): seed %d, model seed %d, %d clients on %d cores, %.0f s timed, %.1f s in all\n",
		rec.Workload, kind, rec.Env.Seed, rec.Env.ModelSeed, rec.Env.Clients, rec.Env.NProc, rec.Env.Seconds, rec.WallS)
	defs := endToEnd
	if rec.Traced {
		defs = perLayer
	}
	for _, m := range defs {
		note := ""
		if n, ok := rec.Samples[m.Name+".beyond"]; ok {
			note = fmt.Sprintf("  (%d ops in %d segments, at least %d beyond in each)", rec.Samples["ops"], rec.Samples["segments"], n)
		} else if n, ok := rec.Samples[m.Name]; ok {
			note = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Printf("  %-40s %14.4f %-6s%s\n", m.Name, rec.Result.Metrics[m.Name].Value, m.Unit, note)
	}
	keys := make([]string, 0, len(rec.Counts))
	for k := range rec.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var counts []string
	for _, k := range keys {
		counts = append(counts, fmt.Sprintf("%s=%d", k, rec.Counts[k]))
	}
	fmt.Printf("  counts: %s\n", strings.Join(counts, " "))
	if w := rec.WholePhase; w != nil {
		fmt.Printf("  as measured over the whole phase: %.4f ops/s, p50 %.4f ms, p95 %.4f ms, %.4f CPU ms per op; machine at %.3f of the reference speed\n",
			w["ops_per_s"], w["op_p50_ms"], w["op_p95_ms"], w["cpu_ms_per_op"], w["machine_speed"])
	}
	for _, c := range rec.Checks {
		if c.OK {
			fmt.Printf("  ok    %s\n", c.Name)
		} else {
			fmt.Printf("  FAIL  %s: %s\n", c.Name, c.Detail)
		}
	}
}

// combined is the result file a run of every workload writes and -compare
// reads: per workload, the end-to-end and per-layer metrics side by side.
type combined struct {
	Env       environment           `json:"env"`
	Workloads map[string]*runRecord `json:"workloads"`
	Traced    map[string]*runRecord `json:"traced"`
	Checks    []check               `json:"checks"`
}

// runAll runs every workload untraced and traced, each in a fresh child
// process, then checks what only holds across runs: two runs of a workload
// produce the same outputs and counts, and the cache serves what the
// pipeline generates.
func runAll(env environment) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := combined{Env: env, Workloads: make(map[string]*runRecord), Traced: make(map[string]*runRecord)}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cmd := exec.Command(self,
				"-workload", w.name,
				"-seed", fmt.Sprint(env.Seed), "-modelseed", fmt.Sprint(env.ModelSeed),
				"-seconds", fmt.Sprint(env.Seconds), "-clients", fmt.Sprint(env.Clients),
				"-trace", map[bool]string{false: "0", true: "1"}[traced])
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			data, err := os.ReadFile(recordPath(w.name, traced))
			if err != nil {
				return err
			}
			rec := new(runRecord)
			if err := json.Unmarshal(data, rec); err != nil {
				return err
			}
			if traced {
				out.Traced[w.name] = rec
			} else {
				out.Workloads[w.name] = rec
			}
		}
	}

	v := &verifier{}
	for _, w := range workloads {
		a, b := out.Workloads[w.name], out.Traced[w.name]
		v.check(w.name+": every check of both runs passed", a.Result.Correct && b.Result.Correct, "see the run's own output")
		v.check(w.name+": two runs produced identical outputs", a.Digest == b.Digest, "digest %s vs %s", a.Digest, b.Digest)
		for k, n := range a.Counts {
			if strings.HasPrefix(k, "script_") {
				v.check(w.name+": two runs agree on "+k, n == b.Counts[k], "%d vs %d", n, b.Counts[k])
			}
		}
	}
	cold, hot := out.Workloads["serve_cold"], out.Workloads["serve_hot"]
	v.check("serve_hot serves the SQL serve_cold generates (cached = uncached)", cold.Digest == hot.Digest, "digest %s vs %s", cold.Digest, hot.Digest)
	out.Checks = v.checks

	fmt.Println("== across runs")
	for _, c := range v.checks {
		if c.OK {
			fmt.Printf("  ok    %s\n", c.Name)
		} else {
			fmt.Printf("  FAIL  %s: %s\n", c.Name, c.Detail)
		}
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSON(path, out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if !v.ok() {
		return errors.New("output verification failed")
	}
	return nil
}
