#!/usr/bin/env sh
# Benchmark harness. Five sections:
#
# 1. Gibbs sampler: runs the sequential sweep and posterior benchmarks at
#    GOMAXPROCS 1 (the sweep is single-goroutine, and a fixed -cpu keeps
#    the rows matchable across hosts) and writes BENCH_gibbs.json at the
#    repo root (schema 3: one row per benchmark, each carrying the
#    host_cpus it was measured on), the baseline of benchdiff's sweep gate.
#
# 2. Ingest data plane: runs the BenchmarkIngest* benchmarks (zero-alloc
#    NDJSON decode in internal/trace, whole-body ingest and parallel
#    multi-stream ingest in internal/serve) and writes BENCH_ingest.json
#    with events/sec and allocs/event per row — the before/after contract
#    for the ingest fast path (the stdlib variants are the baseline).
#
# 3. Durability: runs BenchmarkWALAppend (fsync-off append throughput and
#    allocs/record, plus the group-commit batch variant) and
#    BenchmarkRecovery (Open + full 50k-record replay) in internal/wal and
#    writes BENCH_wal.json.
#
# 4. Scheduler: runs BenchmarkIncrementalSlide (internal/core; one
#    steady-state window slide — append + evict — at window sizes 500,
#    2000, and 8000, the O(new events) contract) and BenchmarkManyStreams
#    (internal/serve; 64 warm streams through the shared inference
#    executor, each iteration sealing one task per stream and waiting for
#    every estimate to catch up) and writes BENCH_sched.json. benchdiff.sh
#    gates on the slide rows scaling with the delta, not the window.
#
# 5. Mean-field fast path: runs BenchmarkMeanFieldSolve (the deterministic
#    first-estimate solve at ~1k/10k/100k events) and BenchmarkColdPosterior
#    (the serve-default StEM + posterior cold start it replaces, same
#    traces) in ONE go test run and writes BENCH_meanfield.json.
#    benchdiff.sh gates the same-run ev10k speedup at >= 50x and the solve
#    rows at 0 allocs/op.
#
# Usage: sh scripts/bench.sh [benchtime]   (default 5x)
# Env:   BENCH_OUT / BENCH_INGEST_OUT / BENCH_WAL_OUT / BENCH_SCHED_OUT /
#        BENCH_MF_OUT override the output paths (used by benchdiff.sh).
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${1:-5x}"
OUT="${BENCH_OUT:-BENCH_gibbs.json}"
INGEST_OUT="${BENCH_INGEST_OUT:-BENCH_ingest.json}"
WAL_OUT="${BENCH_WAL_OUT:-BENCH_wal.json}"
SCHED_OUT="${BENCH_SCHED_OUT:-BENCH_sched.json}"
MF_OUT="${BENCH_MF_OUT:-BENCH_meanfield.json}"
RAW=$(mktemp)
RAW_INGEST=$(mktemp)
RAW_WAL=$(mktemp)
RAW_SCHED=$(mktemp)
RAW_MF=$(mktemp)
trap 'rm -f "$RAW" "$RAW_INGEST" "$RAW_WAL" "$RAW_SCHED" "$RAW_MF"' EXIT

HOST_CPUS="$(nproc 2>/dev/null || echo 1)"

go test -bench 'BenchmarkGibbsSweep|BenchmarkPosterior' -benchmem \
    -cpu 1 -benchtime "$BENCHTIME" -run '^$' . | tee "$RAW"

awk '
BEGIN { n = 0 }
/^Benchmark(GibbsSweep|Posterior)\// {
    name = $1
    procs[n] = 1
    if (match(name, /-[0-9]+$/)) {       # -N suffix is the GOMAXPROCS of the run
        procs[n] = substr(name, RSTART + 1)
        sub(/-[0-9]+$/, "", name)
    }
    split(name, parts, "/")
    bench[n] = parts[1]; variant[n] = parts[2]
    iters[n] = $2; nsop[n] = $3
    bop[n] = ""; aop[n] = ""
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "B/op") bop[n] = $i
        if ($(i+1) == "allocs/op") aop[n] = $i
    }
    n++
}
/^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu) }
END {
    printf "{\n  \"schema\": 3,\n  \"cpu\": \"%s\",\n  \"host_cpus\": %d,\n  \"results\": [\n", cpu, hostcpus
    for (i = 0; i < n; i++) {
        printf "    {\"bench\": \"%s\", \"variant\": \"%s\", \"gomaxprocs\": %s, \"host_cpus\": %d, \"iters\": %s, \"ns_per_op\": %s",
            bench[i], variant[i], procs[i], hostcpus, iters[i], nsop[i]
        if (bop[i] != "") printf ", \"bytes_per_op\": %s, \"allocs_per_op\": %s", bop[i], aop[i]
        printf "}%s\n", (i < n-1 ? "," : "")
    }
    printf "  ]\n}\n"
}' hostcpus="$HOST_CPUS" "$RAW" > "$OUT"

echo "wrote $OUT"

go test -bench 'BenchmarkIngest' -benchmem -benchtime "$BENCHTIME" -run '^$' \
    ./internal/trace ./internal/serve | tee "$RAW_INGEST"

awk '
BEGIN { n = 0 }
/^BenchmarkIngest/ {
    name = $1
    procs[n] = 1
    if (match(name, /-[0-9]+$/)) {
        procs[n] = substr(name, RSTART + 1)
        sub(/-[0-9]+$/, "", name)
    }
    split(name, parts, "/")
    bench[n] = parts[1]; variant[n] = (2 in parts ? parts[2] : "")
    iters[n] = $2; nsop[n] = $3
    evop[n] = ""; evsec[n] = ""; bop[n] = ""; aop[n] = ""
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "events/op") evop[n] = $i
        if ($(i+1) == "events/s") evsec[n] = $i
        if ($(i+1) == "B/op") bop[n] = $i
        if ($(i+1) == "allocs/op") aop[n] = $i
    }
    n++
}
/^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu) }
END {
    printf "{\n  \"cpu\": \"%s\",\n  \"host_cpus\": %d,\n  \"results\": [\n", cpu, hostcpus
    for (i = 0; i < n; i++) {
        printf "    {\"bench\": \"%s\", \"variant\": \"%s\", \"gomaxprocs\": %s, \"iters\": %s, \"ns_per_op\": %s",
            bench[i], variant[i], procs[i], iters[i], nsop[i]
        if (evop[i] != "") printf ", \"events_per_op\": %s", evop[i]
        if (evsec[i] != "") printf ", \"events_per_sec\": %s", evsec[i]
        if (bop[i] != "") printf ", \"bytes_per_op\": %s, \"allocs_per_op\": %s", bop[i], aop[i]
        if (evop[i] != "" && aop[i] != "" && evop[i] + 0 > 0)
            printf ", \"allocs_per_event\": %.4f", aop[i] / evop[i]
        printf "}%s\n", (i < n-1 ? "," : "")
    }
    printf "  ]\n}\n"
}' hostcpus="$HOST_CPUS" "$RAW_INGEST" > "$INGEST_OUT"

echo "wrote $INGEST_OUT"

# The append rows always run a fixed 20000x: each op is sub-microsecond, so
# per-op numbers only stabilize once file setup and buffer growth amortize
# over many records — and benchdiff gates on them cross-run. Recovery scales
# with the user benchtime like everything else.
go test -bench 'BenchmarkWALAppend' -benchmem -benchtime 20000x -run '^$' \
    ./internal/wal | tee "$RAW_WAL"
go test -bench 'BenchmarkRecovery' -benchmem -benchtime "$BENCHTIME" -run '^$' \
    ./internal/wal | tee -a "$RAW_WAL"

awk '
BEGIN { n = 0 }
/^Benchmark(WALAppend|Recovery)/ {
    name = $1
    procs[n] = 1
    if (match(name, /-[0-9]+$/)) {
        procs[n] = substr(name, RSTART + 1)
        sub(/-[0-9]+$/, "", name)
    }
    split(name, parts, "/")
    bench[n] = parts[1]; variant[n] = (2 in parts ? parts[2] : "")
    iters[n] = $2; nsop[n] = $3
    mbs[n] = ""; bop[n] = ""; aop[n] = ""
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "MB/s") mbs[n] = $i
        if ($(i+1) == "B/op") bop[n] = $i
        if ($(i+1) == "allocs/op") aop[n] = $i
    }
    n++
}
/^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu) }
END {
    printf "{\n  \"cpu\": \"%s\",\n  \"host_cpus\": %d,\n  \"results\": [\n", cpu, hostcpus
    for (i = 0; i < n; i++) {
        printf "    {\"bench\": \"%s\", \"variant\": \"%s\", \"gomaxprocs\": %s, \"iters\": %s, \"ns_per_op\": %s",
            bench[i], variant[i], procs[i], iters[i], nsop[i]
        if (mbs[i] != "") printf ", \"mb_per_sec\": %s", mbs[i]
        if (bop[i] != "") printf ", \"bytes_per_op\": %s, \"allocs_per_op\": %s", bop[i], aop[i]
        printf "}%s\n", (i < n-1 ? "," : "")
    }
    printf "  ]\n}\n"
}' hostcpus="$HOST_CPUS" "$RAW_WAL" > "$WAL_OUT"

echo "wrote $WAL_OUT"

# One slide is sub-microsecond, so the slide rows run a fixed 20000x: the
# w500-vs-w8000 scaling gate in benchdiff.sh needs per-op numbers that have
# amortized ring compaction, and 20000 ops cycle every window size at least
# twice. The executor benchmark scales with the user benchtime — each of
# its ops is a full 64-stream ingest + catch-up round.
go test -bench 'BenchmarkIncrementalSlide' -benchmem -benchtime 20000x -run '^$' \
    ./internal/core | tee "$RAW_SCHED"
go test -bench 'BenchmarkManyStreams' -benchmem -benchtime "$BENCHTIME" -run '^$' \
    ./internal/serve | tee -a "$RAW_SCHED"

awk '
BEGIN { n = 0 }
/^Benchmark(IncrementalSlide|ManyStreams)/ {
    name = $1
    procs[n] = 1
    if (match(name, /-[0-9]+$/)) {
        procs[n] = substr(name, RSTART + 1)
        sub(/-[0-9]+$/, "", name)
    }
    split(name, parts, "/")
    bench[n] = parts[1]; variant[n] = (2 in parts ? parts[2] : "")
    windowsz[n] = 0                      # wN window-size suffix of the slide rows
    if (match(variant[n], /^w[0-9]+$/))
        windowsz[n] = substr(variant[n], 2)
    iters[n] = $2; nsop[n] = $3
    bop[n] = ""; aop[n] = ""
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "B/op") bop[n] = $i
        if ($(i+1) == "allocs/op") aop[n] = $i
    }
    n++
}
/^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu) }
END {
    printf "{\n  \"cpu\": \"%s\",\n  \"host_cpus\": %d,\n  \"results\": [\n", cpu, hostcpus
    for (i = 0; i < n; i++) {
        printf "    {\"bench\": \"%s\", \"variant\": \"%s\", \"window\": %s, \"gomaxprocs\": %s, \"iters\": %s, \"ns_per_op\": %s",
            bench[i], variant[i], windowsz[i], procs[i], iters[i], nsop[i]
        if (bop[i] != "") printf ", \"bytes_per_op\": %s, \"allocs_per_op\": %s", bop[i], aop[i]
        printf "}%s\n", (i < n-1 ? "," : "")
    }
    printf "  ]\n}\n"
}' hostcpus="$HOST_CPUS" "$RAW_SCHED" > "$SCHED_OUT"

echo "wrote $SCHED_OUT"

# Both sides of the >= 50x gate run in ONE invocation at a fixed 3x so the
# ratio is same-run (cross-run wall clock on a shared box swings too much)
# and the ev100k cold row (~2s/op) stays bounded.
go test -bench 'BenchmarkMeanFieldSolve|BenchmarkColdPosterior' -benchmem \
    -benchtime 3x -run '^$' . | tee "$RAW_MF"

awk '
BEGIN { n = 0 }
/^Benchmark(MeanFieldSolve|ColdPosterior)\// {
    name = $1
    procs[n] = 1
    if (match(name, /-[0-9]+$/)) {
        procs[n] = substr(name, RSTART + 1)
        sub(/-[0-9]+$/, "", name)
    }
    split(name, parts, "/")
    bench[n] = parts[1]; variant[n] = parts[2]
    events[n] = 0                        # evNk event-scale suffix
    if (match(variant[n], /^ev[0-9]+k$/))
        events[n] = substr(variant[n], 3, RLENGTH - 3) * 1000
    iters[n] = $2; nsop[n] = $3
    bop[n] = ""; aop[n] = ""
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "B/op") bop[n] = $i
        if ($(i+1) == "allocs/op") aop[n] = $i
    }
    n++
}
/^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu) }
END {
    printf "{\n  \"cpu\": \"%s\",\n  \"host_cpus\": %d,\n  \"results\": [\n", cpu, hostcpus
    for (i = 0; i < n; i++) {
        printf "    {\"bench\": \"%s\", \"variant\": \"%s\", \"events\": %s, \"gomaxprocs\": %s, \"iters\": %s, \"ns_per_op\": %s",
            bench[i], variant[i], events[i], procs[i], iters[i], nsop[i]
        if (bop[i] != "") printf ", \"bytes_per_op\": %s, \"allocs_per_op\": %s", bop[i], aop[i]
        printf "}%s\n", (i < n-1 ? "," : "")
    }
    printf "  ]\n}\n"
}' hostcpus="$HOST_CPUS" "$RAW_MF" > "$MF_OUT"

echo "wrote $MF_OUT"
