#!/usr/bin/env bash
# CI smoke pass: formatting, static checks, build, tests, race detection on
# the concurrent packages, a live-daemon /metrics scrape checked against the
# required-family manifest, a 1-iteration benchmark sweep so every benchmark
# (and the EX metrics it reports) stays runnable, a race-covered overload
# smoke, a bounded kstore crash-fuzz run, a bounded differential fuzz of the
# SQL date kernels, and a short run of the repo benchmark's exhibits workload
# for its output checks and its allocation budget.
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (concurrent packages: service facade incl. generation-cache stress, daemon incl. feedback + miner endpoints, admission control, generation cache, parallel runner, shared executors, ANN retrieval index, knowledge store, solver, failure miner, simulated model's gold-fragment memo) =="
go test -race . ./cmd/geneditd ./internal/admission ./internal/eval ./internal/gencache ./internal/metrics ./internal/sqlexec ./internal/pipeline ./internal/embed ./internal/kstore ./internal/feedback ./internal/miner ./internal/simllm

echo "== ANN exactness gate (top-k order-identical to brute force across the seeded sweep) =="
go test -count=1 -run 'TestANNParitySweep|TestANNDeterministicBuild|TestANNSubLinearScan' ./internal/embed

echo "== metrics scrape smoke (daemon /readyz + /metrics vs required-family manifest) =="
metrics_store=$(mktemp -d)
metrics_addr="127.0.0.1:19187"
go build -o /tmp/geneditd_smoke ./cmd/geneditd
/tmp/geneditd_smoke -addr "$metrics_addr" -store "$metrics_store" -prewarm &
metrics_pid=$!
trap 'kill $metrics_pid 2>/dev/null || true; rm -rf "$metrics_store" /tmp/geneditd_smoke' EXIT
for i in $(seq 1 100); do
    if curl -fsS "http://$metrics_addr/readyz" > /dev/null 2>&1; then break; fi
    if [ "$i" = 100 ]; then echo "daemon never became ready" >&2; exit 1; fi
    sleep 0.1
done
curl -fsS -X POST "http://$metrics_addr/v1/generate" \
    -d '{"database":"sports_holdings","question":"How many teams are in the league?"}' > /dev/null
scrape=$(curl -fsS "http://$metrics_addr/metrics")
while read -r name kind; do
    case "$name" in ''|'#'*) continue;; esac
    if ! echo "$scrape" | grep -q "^# TYPE $name $kind\$"; then
        echo "metrics smoke: required family missing from /metrics: $name ($kind)" >&2
        exit 1
    fi
done < metrics_manifest.txt
if ! echo "$scrape" | grep -qE '^genedit_requests_total\{db="sports_holdings",outcome="(ok|failed_sql)"\} [1-9]'; then
    echo "metrics smoke: request counter did not move after a generate" >&2
    exit 1
fi
kill $metrics_pid && wait $metrics_pid 2>/dev/null || true
trap - EXIT
rm -rf "$metrics_store" /tmp/geneditd_smoke

echo "== miner round smoke (serve recurring failures, mine, audit the merges) =="
go run ./cmd/kbctl -db sports_holdings -demo-mine > /dev/null

echo "== benchmark smoke (1 iteration each) =="
go test -bench=. -benchtime=1x -run '^$' .
go test -bench=. -benchtime=1x -run '^$' ./internal/bench
go test -bench=. -benchtime=1x -run '^$' ./internal/sqlexec

echo "== parallel serving benchmarks under -race (cache hit path, coalescing, shard contention) =="
go test -race -bench 'GenerationCache|GenerationCoalescing|StatementCacheParallel|ParallelEval' -benchtime=1x -run '^$' .

echo "== closed-loop load smoke (benchrunner -parallel) =="
go run ./cmd/benchrunner -parallel 4 -requests 200 > /dev/null

# The parity half of the overload contract — every admitted response
# bit-identical to an unthrottled reference — is asserted by
# TestAdmissionOverloadParity; the daemon's drain-or-shed shutdown is
# TestDaemonGracefulShutdownUnderLoad. Both rerun here under -race next to
# the load smoke so the overload gate reads as one unit.
echo "== overload smoke under -race (adversarial load vs tiny token budget) =="
go test -race -count=1 -run 'TestAdmissionOverloadParity|TestDaemonGracefulShutdownUnderLoad' . ./cmd/geneditd
overload_out=$(go run -race ./cmd/benchrunner -parallel 8 -requests 300 -adversarial -admitrate 40 -admitburst 10 -maxinflight 4 -maxqueue 16)
if ! echo "$overload_out" | grep -qE '[1-9][0-9]* rate-limited \(429\)'; then
    echo "overload smoke: the token budget was never exhausted (no 429s)" >&2
    echo "$overload_out" >&2
    exit 1
fi

echo "== stress-scale smoke under -race (scaled suite, ANN-partitioned retrieval, concurrent approvals hot-swapping engines mid-load) =="
scale_out=$(go run -race ./cmd/benchrunner -parallel 4 -requests 150 -adversarial -scale 3 -approvers 2 -metricsdump=false)
if ! echo "$scale_out" | grep -qE '[1-9][0-9]* ann-partitioned'; then
    echo "stress-scale smoke: no searches went through the ANN partitions" >&2
    echo "$scale_out" >&2
    exit 1
fi
if ! echo "$scale_out" | grep -qE '[1-9][0-9]* feedback sessions'; then
    echo "stress-scale smoke: the concurrent approver loops never completed a session" >&2
    echo "$scale_out" >&2
    exit 1
fi

echo "== kstore crash-fuzz (1000 injected-fault iterations, event-loss + lineage checks) =="
KSTORE_FUZZ_ITERS=1000 go test -count=1 -run 'TestCrashFuzz|TestFaultSweepExhaustive' ./internal/kstore

# The date kernels (parseDate, toChar) promise the parts, output and error
# text of the fmt-based code they replaced, for any input; the fuzzer hunts
# for a counter-example from the committed corpus of odd shapes
# (internal/sqlexec/testdata/fuzz/FuzzDateKernels).
echo "== date-kernel differential fuzz (10 s, kernels vs their fmt-based oracles) =="
go test -run '^$' -fuzz FuzzDateKernels -fuzztime 10s ./internal/sqlexec

# BENCH_7.json (PR 13: date kernels, single-parse decomposition, hoisted
# per-request re-derivations, top-k selection) carries the current
# wall-clock and allocation trajectory; its EX tables are bit-identical to
# BENCH_0.json — that PR changed what a request costs, not what it returns,
# and was itself gated against BENCH_6.json. (BENCH_6.json stays committed:
# benchmark/golden_ex.json is its copy.)
echo "== EX parity gate (all tables vs committed BENCH_7.json baseline) =="
go run ./cmd/benchrunner -json /tmp/bench_parity.json -baseline BENCH_7.json > /dev/null

# The repo benchmark checks its own output on every operation: served SQL
# equals the pinned SQL, cached == uncached, and the exhibits workload's EX
# rows equal benchmark/golden_ex.json. A short run keeps those checks in CI;
# a -workload run exits 0 either way and reports the verdict as "correct"
# in its last line.
#
# The same line carries allocs_per_op, which repeats to within a percent
# between 2-second runs of one commit (timing does not, so it is not gated
# here). The budget is PR 13's measured value (847, 850, 853 over three
# runs; the parent commit read 4,424) plus 5%: a change that puts per-row
# or per-request allocation back on the miss path fails CI. To re-baseline
# after a deliberate change, run the command below three times, take the
# largest allocs_per_op, add 5% and say why in CHANGES.md.
exhibits_allocs_budget=895
echo "== benchmark output checks (exhibits workload: per-op pinned SQL, golden EX, allocation budget) =="
bench_out=$(bash benchmark/run.sh -workload exhibits -seconds 2)
bench_last=$(echo "$bench_out" | tail -n 1)
if ! echo "$bench_last" | grep -q '"correct":true'; then
    echo "benchmark output checks: the exhibits run did not report correct=true" >&2
    echo "$bench_out" >&2
    exit 1
fi
exhibits_allocs=$(echo "$bench_last" | sed -n 's/.*"allocs_per_op":{"value":\([0-9.]*\).*/\1/p')
if [ -z "$exhibits_allocs" ]; then
    echo "benchmark allocation budget: no allocs_per_op in the exhibits result" >&2
    echo "$bench_last" >&2
    exit 1
fi
if ! awk -v got="$exhibits_allocs" -v max="$exhibits_allocs_budget" 'BEGIN { exit !(got <= max) }'; then
    echo "benchmark allocation budget: exhibits allocs_per_op $exhibits_allocs exceeds $exhibits_allocs_budget" >&2
    exit 1
fi
echo "exhibits allocs_per_op $exhibits_allocs (budget $exhibits_allocs_budget)"

echo "CI pass complete."
