#!/usr/bin/env sh
# Benchmark regression gate: re-runs every bench.sh section and compares
# each row against the committed baselines.
#
# - BENCH_gibbs.json: the sweep benchmark (BenchmarkGibbsSweep/seq) is the
#   inference hot-path contract, so it gates hard: >20% ns/op growth or
#   ANY allocs/op growth fails. Posterior rows are printed for context but
#   do not gate (they include clone + initializer noise and short-run
#   variance). A baseline written by an older bench.sh (no "schema": 3
#   marker) cannot be row-matched against the fresh output; it is reseeded
#   from the fresh run instead of failing the gate.
# - BENCH_ingest.json: the ingest fast path gates on its two
#   noise-immune contracts: the fast variant must stay >= 2x the stdlib
#   variant measured in the SAME run (cross-run wall-clock on a shared box
#   swings too much to gate on), and allocs/event on the fast rows must
#   not grow versus the baseline (allocations are deterministic).
#   Cross-run events/sec deltas are printed for context only.
# - BENCH_wal.json: the WAL append path gates on its fsync-free variant
#   (BenchmarkWALAppend/off): any allocs/record growth fails, and append
#   throughput below 0.5x the committed baseline fails (the wide band
#   absorbs shared-box I/O variance; real regressions halve throughput).
#   The batch4096 and Recovery rows are printed for context — both are
#   fsync/page-cache bound and too noisy to gate.
# - BENCH_meanfield.json: the mean-field fast path gates same-run on its
#   two deterministic contracts: the ev10k solve must be >= 50x faster
#   than the serve-default cold Gibbs start (StEM + posterior) measured in
#   the SAME run, and every MeanFieldSolve row must stay at 0 allocs/op
#   (the scratch-reuse steady state is what makes the instant publish
#   free). Cross-run ns/op deltas are printed for context only — both
#   sides are CPU-bound, so the ratio is stable where wall clock is not.
# - BENCH_sched.json: the incremental-slide contract gates same-run:
#   one steady-state slide (fixed one-task delta) must cost about the
#   same at window 8000 as at window 500 — ns/op(w8000) > 3x ns/op(w500)
#   fails, because it means the slide cost tracks the window length, not
#   the new-event count. Slide allocs/op must also stay 0 (the zero-alloc
#   steady state is what makes O(new events) real). BenchmarkManyStreams
#   is printed for context — a full 64-stream scheduler round mixes
#   goroutine scheduling with inference and is too noisy to gate
#   cross-run on a shared box.
#
# Usage: sh scripts/benchdiff.sh [benchtime]   (default 5x; raise for a
# quieter signal, e.g. `sh scripts/benchdiff.sh 50x`)
set -eu

cd "$(dirname "$0")/.."

BASE=BENCH_gibbs.json
INGEST_BASE=BENCH_ingest.json
WAL_BASE=BENCH_wal.json
SCHED_BASE=BENCH_sched.json
MF_BASE=BENCH_meanfield.json
for f in "$BASE" "$INGEST_BASE" "$WAL_BASE" "$SCHED_BASE" "$MF_BASE"; do
    if [ ! -f "$f" ]; then
        echo "benchdiff: no baseline $f; run 'make bench' and commit it" >&2
        exit 1
    fi
done

FRESH=$(mktemp)
FRESH_INGEST=$(mktemp)
FRESH_WAL=$(mktemp)
FRESH_SCHED=$(mktemp)
FRESH_MF=$(mktemp)
trap 'rm -f "$FRESH" "$FRESH_INGEST" "$FRESH_WAL" "$FRESH_SCHED" "$FRESH_MF"' EXIT
BENCH_OUT="$FRESH" BENCH_INGEST_OUT="$FRESH_INGEST" BENCH_WAL_OUT="$FRESH_WAL" \
    BENCH_SCHED_OUT="$FRESH_SCHED" BENCH_MF_OUT="$FRESH_MF" \
    sh scripts/bench.sh "${1:-5x}" >/dev/null

# Both sections run even when the first regresses, so one report covers the
# whole surface; the gate fails at the end if either did.
rc=0

# An old-schema baseline (no "schema": 3 marker) cannot be row-matched
# against the fresh output. Reseed it from this run instead of failing; the
# cross-run diff resumes once the reseeded file is committed.
if grep -q '"schema": *3' "$BASE"; then
    GIBBS_CMP="$BASE"
else
    echo "benchdiff: $BASE schema changed, seeding baseline from this run (commit it)"
    cp "$FRESH" "$BASE"
    GIBBS_CMP="$FRESH"
fi

awk '
function num(line, key,    s) {
    if (!match(line, "\"" key "\": *-?[0-9.e+]+")) return -1
    s = substr(line, RSTART, RLENGTH)
    sub(/^.*: */, "", s)
    return s + 0
}
function str(line, key,    s) {
    if (!match(line, "\"" key "\": *\"[^\"]*\"")) return ""
    s = substr(line, RSTART, RLENGTH)
    sub(/^.*: *"/, "", s); sub(/"$/, "", s)
    return s
}
function rowkey(line) {
    return str(line, "bench") "/" str(line, "variant") "@cpu" num(line, "gomaxprocs")
}
FNR == NR && /"bench":/ {
    k = rowkey($0)
    bns[k] = num($0, "ns_per_op"); bal[k] = num($0, "allocs_per_op")
    next
}
/"bench":/ {
    k = rowkey($0)
    ns = num($0, "ns_per_op"); al = num($0, "allocs_per_op")
    if (!(k in bns)) {
        printf "%-44s %38s\n", k, "new row (no baseline)"
        next
    }
    ratio = ns / bns[k]
    status = "ok"
    if (str($0, "bench") == "BenchmarkGibbsSweep") {
        if (ratio > 1.20) { status = "FAIL ns/op"; bad = 1 }
        if (al > bal[k])  { status = status " FAIL allocs"; bad = 1 }
    }
    printf "%-44s %11.0f -> %11.0f ns/op (%+6.1f%%)  allocs %g -> %g  %s\n",
        k, bns[k], ns, (ratio - 1) * 100, bal[k], al, status
}
END {
    if (bad) { print "benchdiff: sweep benchmark regression" | "cat 1>&2"; exit 1 }
}' "$GIBBS_CMP" "$FRESH" || rc=1

awk '
function num(line, key,    s) {
    if (!match(line, "\"" key "\": *-?[0-9.e+]+")) return -1
    s = substr(line, RSTART, RLENGTH)
    sub(/^.*: */, "", s)
    return s + 0
}
function str(line, key,    s) {
    if (!match(line, "\"" key "\": *\"[^\"]*\"")) return ""
    s = substr(line, RSTART, RLENGTH)
    sub(/^.*: *"/, "", s); sub(/"$/, "", s)
    return s
}
function rowkey(line) {
    return str(line, "bench") "/" str(line, "variant")
}
FNR == NR && /"bench":/ {
    k = rowkey($0)
    bev[k] = num($0, "events_per_sec"); bae[k] = num($0, "allocs_per_event")
    next
}
/"bench":/ {
    k = rowkey($0)
    ev = num($0, "events_per_sec"); ae = num($0, "allocs_per_event")
    b = str($0, "bench"); v = str($0, "variant")
    fresh_ev[b "/" v] = ev
    status = "ok"
    if (!(k in bev)) {
        printf "%-44s %38s\n", k, "new row (no baseline)"
        next
    }
    gated = (v == "fast" || b == "BenchmarkIngestParallelStreams")
    # +0.05 absorbs sync.Pool eviction jitter; real leaks show up as
    # whole allocations per event. Pool churn in the parallel benchmark
    # moves with goroutine scheduling, so it gates on an absolute ceiling.
    if (gated) {
        if (b == "BenchmarkIngestParallelStreams") {
            if (ae > 1.0) { status = "FAIL allocs/event"; bad = 1 }
        } else if (ae > bae[k] + 0.05) { status = "FAIL allocs/event"; bad = 1 }
    }
    if (bev[k] > 0 && ev > 0)
        printf "%-44s %11.0f -> %11.0f events/s (%+6.1f%%)  allocs/event %.3f -> %.3f  %s\n",
            k, bev[k], ev, (ev / bev[k] - 1) * 100, bae[k], ae, status
}
END {
    # Same-run speedup contract: the fast decoder/ingest path must hold
    # >= 2x over the stdlib variant of the same benchmark.
    for (key in fresh_ev) {
        if (key !~ /\/fast$/) continue
        base = key; sub(/\/fast$/, "/stdlib", base)
        if (!(base in fresh_ev) || fresh_ev[base] <= 0) continue
        speedup = fresh_ev[key] / fresh_ev[base]
        status = "ok"
        if (speedup < 2.0) { status = "FAIL speedup < 2x"; bad = 1 }
        printf "%-44s %26.1fx fast vs stdlib  %s\n", key, speedup, status
    }
    if (bad) { print "benchdiff: ingest benchmark regression" | "cat 1>&2"; exit 1 }
}' "$INGEST_BASE" "$FRESH_INGEST" || rc=1

awk '
function num(line, key,    s) {
    if (!match(line, "\"" key "\": *-?[0-9.e+]+")) return -1
    s = substr(line, RSTART, RLENGTH)
    sub(/^.*: */, "", s)
    return s + 0
}
function str(line, key,    s) {
    if (!match(line, "\"" key "\": *\"[^\"]*\"")) return ""
    s = substr(line, RSTART, RLENGTH)
    sub(/^.*: *"/, "", s); sub(/"$/, "", s)
    return s
}
function rowkey(line) {
    return str(line, "bench") "/" str(line, "variant")
}
FNR == NR && /"bench":/ {
    k = rowkey($0)
    bmb[k] = num($0, "mb_per_sec"); bal[k] = num($0, "allocs_per_op")
    next
}
/"bench":/ {
    k = rowkey($0)
    mb = num($0, "mb_per_sec"); al = num($0, "allocs_per_op")
    if (!(k in bmb)) {
        printf "%-44s %38s\n", k, "new row (no baseline)"
        next
    }
    status = "ok"
    if (k == "BenchmarkWALAppend/off") {
        if (al > bal[k]) { status = "FAIL allocs/record"; bad = 1 }
        if (bmb[k] > 0 && mb >= 0 && mb < 0.5 * bmb[k]) {
            status = status " FAIL throughput < 0.5x baseline"; bad = 1
        }
    }
    printf "%-44s %9.1f -> %9.1f MB/s (%+6.1f%%)  allocs %g -> %g  %s\n",
        k, bmb[k], mb, (bmb[k] > 0 ? (mb / bmb[k] - 1) * 100 : 0), bal[k], al, status
}
END {
    if (bad) { print "benchdiff: WAL benchmark regression" | "cat 1>&2"; exit 1 }
}' "$WAL_BASE" "$FRESH_WAL" || rc=1

awk '
function num(line, key,    s) {
    if (!match(line, "\"" key "\": *-?[0-9.e+]+")) return -1
    s = substr(line, RSTART, RLENGTH)
    sub(/^.*: */, "", s)
    return s + 0
}
function str(line, key,    s) {
    if (!match(line, "\"" key "\": *\"[^\"]*\"")) return ""
    s = substr(line, RSTART, RLENGTH)
    sub(/^.*: *"/, "", s); sub(/"$/, "", s)
    return s
}
function rowkey(line) {
    return str(line, "bench") "/" str(line, "variant")
}
FNR == NR && /"bench":/ {
    k = rowkey($0)
    bns[k] = num($0, "ns_per_op")
    next
}
/"bench":/ {
    k = rowkey($0)
    ns = num($0, "ns_per_op"); al = num($0, "allocs_per_op")
    status = "ok"
    if (str($0, "bench") == "BenchmarkIncrementalSlide") {
        slide[str($0, "variant")] = ns
        # The steady-state slide recycles every buffer; any allocation per
        # op means a reuse path broke and cost will track window size.
        if (al > 0) { status = "FAIL allocs/op"; bad = 1 }
    }
    if (!(k in bns)) {
        printf "%-44s %38s  %s\n", k, "new row (no baseline)", status
        next
    }
    printf "%-44s %11.0f -> %11.0f ns/op (%+6.1f%%)  allocs %g  %s\n",
        k, bns[k], ns, (bns[k] > 0 ? (ns / bns[k] - 1) * 100 : 0), al, status
}
END {
    # Same-run O(new events) gate: a slide does fixed work (one task in,
    # one task out), so its cost must not grow with the window it slides.
    # The 3x band absorbs cache effects of the larger ring; an O(window)
    # regression shows up as 16x between w500 and w8000.
    if (slide["w500"] > 0 && slide["w8000"] > 0) {
        ratio = slide["w8000"] / slide["w500"]
        status = "ok"
        if (ratio > 3.0) { status = "FAIL slide cost grows with window"; bad = 1 }
        printf "%-44s %20.2fx w8000 vs w500  %s\n", "BenchmarkIncrementalSlide/scaling", ratio, status
    }
    if (bad) { print "benchdiff: scheduler benchmark regression" | "cat 1>&2"; exit 1 }
}' "$SCHED_BASE" "$FRESH_SCHED" || rc=1

awk '
function num(line, key,    s) {
    if (!match(line, "\"" key "\": *-?[0-9.e+]+")) return -1
    s = substr(line, RSTART, RLENGTH)
    sub(/^.*: */, "", s)
    return s + 0
}
function str(line, key,    s) {
    if (!match(line, "\"" key "\": *\"[^\"]*\"")) return ""
    s = substr(line, RSTART, RLENGTH)
    sub(/^.*: *"/, "", s); sub(/"$/, "", s)
    return s
}
function rowkey(line) {
    return str(line, "bench") "/" str(line, "variant")
}
FNR == NR && /"bench":/ {
    k = rowkey($0)
    bns[k] = num($0, "ns_per_op")
    next
}
/"bench":/ {
    k = rowkey($0)
    ns = num($0, "ns_per_op"); al = num($0, "allocs_per_op")
    fns[k] = ns
    status = "ok"
    # The solve recycles every buffer through its scratch; any allocation
    # per op means the instant publish started costing GC on the hot path.
    if (str($0, "bench") == "BenchmarkMeanFieldSolve" && al > 0) {
        status = "FAIL allocs/op"; bad = 1
    }
    if (!(k in bns)) {
        printf "%-44s %38s  %s\n", k, "new row (no baseline)", status
        next
    }
    printf "%-44s %11.0f -> %11.0f ns/op (%+6.1f%%)  allocs %g  %s\n",
        k, bns[k], ns, (bns[k] > 0 ? (ns / bns[k] - 1) * 100 : 0), al, status
}
END {
    # Same-run time-to-first-estimate contract: at 10k events the
    # deterministic solve must be >= 50x faster than the serve-default
    # cold Gibbs start it replaces. Both rows come from one go test run,
    # so shared-box wall-clock swings cancel in the ratio.
    mf = fns["BenchmarkMeanFieldSolve/ev10k"]
    cold = fns["BenchmarkColdPosterior/ev10k"]
    if (mf > 0 && cold > 0) {
        speedup = cold / mf
        status = "ok"
        if (speedup < 50.0) { status = "FAIL speedup < 50x"; bad = 1 }
        printf "%-44s %17.1fx vs cold gibbs  %s\n", "BenchmarkMeanFieldSolve/ev10k", speedup, status
    } else {
        print "benchdiff: missing ev10k mean-field rows" | "cat 1>&2"; bad = 1
    }
    if (bad) { print "benchdiff: mean-field benchmark regression" | "cat 1>&2"; exit 1 }
}' "$MF_BASE" "$FRESH_MF" || rc=1

[ "$rc" -eq 0 ] && echo "benchdiff: ok"
exit "$rc"
