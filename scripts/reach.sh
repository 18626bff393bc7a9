#!/usr/bin/env bash
# Production reach gate: every non-test function of the module is reached by
# real traffic, or is named in scripts/reach_allowlist.txt with a reason.
#
# The five programs (the repo benchmark, benchrunner, kbctl, geneditd and
# genedit) are built with statement coverage of every package of the module,
# then driven through a fixed sweep: each benchmark workload for 1 s untraced
# and 1 s traced, every benchrunner table against the EX baseline, kbctl's
# two demos and every -show view of the daemon's store, genedit's -list and
# one genedit question with -prompt -trace, and a scripted geneditd session (generate, batch,
# databases, knowledge, stats, miner get and mine, /metrics, /healthz, one
# feedback session open → regenerate → submit → delete, which withdraws its
# pending change, and one open → regenerate → submit → approve). `go tool
# covdata func` then lists the functions the sweep left at 0%.
#
# The gate fails when
#   - a function at 0% matches no allowlist entry,
#   - an allowlist entry matches no function of the module (it went stale),
#     or
#   - a non-main package is linked into none of the five programs, so none
#     of its functions could be measured.
# An entry whose function the sweep did reach is reported, never failed:
# whether a rare path runs in a 1-second load can depend on timing.
#
# Run from anywhere: bash scripts/reach.sh. Binaries, coverage counters and
# the daemon's store live in a temporary directory that is removed on exit;
# nothing is written inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$PWD
allowlist=$repo/scripts/reach_allowlist.txt

# The daemon session's own port (the metrics smoke in ci.sh uses 19187).
addr=127.0.0.1:19188

work=$(mktemp -d)
daemon_pid=
cleanup() {
    if [ -n "$daemon_pid" ]; then kill "$daemon_pid" 2>/dev/null || true; fi
    rm -rf "$work"
}
trap cleanup EXIT

bin=$work/bin
export GOCOVERDIR=$work/cover
mkdir -p "$bin" "$GOCOVERDIR" "$work/run/benchmark"

echo "reach: building the five programs with -cover -coverpkg=./..."
for pkg in ./benchmark ./cmd/benchrunner ./cmd/kbctl ./cmd/geneditd ./cmd/genedit; do
    go build -cover -coverpkg=./... -o "$bin/$(basename "$pkg")" "$pkg"
done

# The benchmark writes its records under benchmark/out of its working
# directory; a scratch root keeps them out of the checkout.
cd "$work/run"

echo "reach: benchmark workloads, 1 s each, untraced and traced"
for w in serve_cold serve_hot serve_scaled edit_loop exhibits; do
    for trace in 0 1; do
        "$bin/benchmark" -workload "$w" -seconds 1 -trace "$trace" > /dev/null
    done
done

echo "reach: benchrunner, kbctl, genedit"
question='top 5 sports organisations by total revenue in Canada for 2023'
"$bin/benchrunner" -table all -baseline "$repo/BENCH_7.json" > /dev/null
"$bin/kbctl" -demo-mine > /dev/null
"$bin/kbctl" -demo-revert > /dev/null
"$bin/genedit" -list > /dev/null
"$bin/genedit" -q "$question" -prompt -trace > /dev/null

echo "reach: geneditd session on $addr"
store=$work/store
"$bin/geneditd" -addr "$addr" -store "$store" -prewarm -miner 1h -admitrate 1000 -maxinflight 4 \
    -workers 2 -trace 2> "$work/geneditd.log" &
daemon_pid=$!
for i in $(seq 1 300); do
    if curl -fsS "http://$addr/readyz" > /dev/null 2>&1; then break; fi
    if [ "$i" = 300 ]; then
        echo "reach: geneditd never became ready" >&2
        cat "$work/geneditd.log" >&2
        exit 1
    fi
    sleep 0.1
done
get() { curl -fsS "http://$addr$1" > /dev/null; }
post() { curl -fsS -X POST "http://$addr$1" -d "$2"; }
post /v1/generate '{"database":"sports_holdings","question":"'"$question"'"}' > /dev/null
post /v1/generate/batch '{"requests":[{"database":"sports_holdings","question":"How many teams are in the league?"},{"database":"retail_chain","question":"How many stores are there?"}]}' > /dev/null
get /v1/databases
get '/v1/knowledge/sports_holdings?n=3'
get /v1/stats
get /v1/miner/sports_holdings
post /v1/miner/sports_holdings/mine '' > /dev/null
get /metrics
get /healthz
# Two SME sessions whose edits pass the regression gate: the first is
# abandoned (DELETE withdraws its pending change), the second is merged.
session() {
    local opened id submitted
    opened=$(post /v1/feedback/open '{"database":"sports_holdings","question":"'"$question"'"}')
    id=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' <<<"$opened")
    if [ -z "$id" ]; then
        echo "reach: feedback open returned no session id: $opened" >&2
        exit 1
    fi
    post "/v1/feedback/$id/regenerate" '{"feedback":"The result does not answer \"'"$question"'\"; please revise the calculation."}' > /dev/null
    submitted=$(post "/v1/feedback/$id/submit" '{}')
    if ! grep -q '"pending": *true' <<<"$submitted"; then
        echo "reach: feedback submit left nothing to approve: $submitted" >&2
        exit 1
    fi
    echo "$id"
}
id=$(session)
deleted=$(curl -fsS -X DELETE "http://$addr/v1/feedback/$id")
if ! grep -q '"withdrawn": *true' <<<"$deleted"; then
    echo "reach: feedback delete withdrew no pending change: $deleted" >&2
    exit 1
fi
id=$(session)
post "/v1/feedback/$id/approve" '{"approver":"reviewer"}' > /dev/null
# SIGINT drains the server and returns from main, which writes the counters.
kill -INT "$daemon_pid"
wait "$daemon_pid"
daemon_pid=

for view in stats examples instructions intents terms history checkpoints mined; do
    "$bin/kbctl" -store "$store" -show "$view" > /dev/null
done

cd "$repo"
go tool covdata func -i="$GOCOVERDIR" > "$work/func.txt"
go list -f '{{if ne .Name "main"}}{{.ImportPath}}{{end}}' ./... > "$work/packages.txt"

# covdata prints "genedit/<dir>/<file>.go:<line>:  <function>  <percent>".
# An allowlist line is "<package> <function> <reason> <note...>"; the
# allowlist's header describes the fields.
awk -v allowlist="$allowlist" -v packages="$work/packages.txt" '
    BEGIN {
        while ((getline line < packages) > 0) if (line != "") linked[line] = 0
        classes = "^(seam|oracle|error-path|interface|frozen-benchmark|item-[0-9]+)$"
        while ((getline line < allowlist) > 0) {
            lineno++
            if (line ~ /^[ \t]*(#|$)/) continue
            n = split(line, f, /[ \t]+/)
            if (n < 4 || f[3] !~ classes) {
                printf "reach: %s:%d: want \"<package> <function> <reason> <note>\" with a reason from seam, oracle, error-path, interface, frozen-benchmark, item-N: %s\n", allowlist, lineno, line
                bad = 1
                continue
            }
            entries++
            pkg[entries] = f[1]; fn[entries] = f[2]; where[entries] = lineno
        }
    }
    function matches(i, p, name) {
        if (pkg[i] != p) return 0
        if (fn[i] ~ /^\./) return substr(name, length(name) - length(fn[i]) + 1) == fn[i]
        if (fn[i] ~ /\.$/) return substr(name, 1, length(fn[i])) == fn[i]
        return fn[i] == name
    }
    $1 == "total" { next }
    {
        p = $1; sub(/\/[^\/]*$/, "", p)
        name = $2; zero = ($3 == "0.0%")
        if (p in linked) linked[p] = 1
        funcs++; if (zero) zeros++
        hit = 0
        for (i = 1; i <= entries; i++) {
            if (!matches(i, p, name)) continue
            exists[i] = 1; hit = 1
            if (zero) needed[i] = 1; else reached[i] = reached[i] " " name
        }
        if (zero && !hit) {
            printf "reach: unreached and not allowlisted: %s %s (%s)\n", p, name, $1
            bad = 1
        }
    }
    END {
        for (p in linked) {
            if (!linked[p]) {
                printf "reach: package %s is linked into none of the five programs\n", p
                bad = 1
            }
        }
        for (i = 1; i <= entries; i++) {
            if (!exists[i]) {
                printf "reach: allowlist line %d names no function of the module: %s %s\n", where[i], pkg[i], fn[i]
                bad = 1
            } else if (!needed[i]) {
                printf "reach: note: allowlist line %d is reached by this sweep:%s\n", where[i], reached[i]
            }
        }
        printf "reach: %d functions, %d at 0%%, %d allowlist entries\n", funcs, zeros, entries
        exit bad
    }
' "$work/func.txt"
