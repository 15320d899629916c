#!/usr/bin/env sh
# Full verification gate: gofmt, vet, build everything (commands and examples
# included), run the test suite under the race detector, then run the
# timing and allocation contracts without it (they skip under -race).
set -eux

cd "$(dirname "$0")/.."

# Every tracked Go file must be gofmt-clean.
test -z "$(gofmt -l $(git ls-files '*.go'))"
go vet ./...
go build ./...
go test -race ./...

# Focused race gate for the concurrent paths: the serve e2e tests (including
# the legacy-config replay) plus the sharded-ingest and metrics scrape
# storms, the shared inference executor (priority queue, shed/re-admit
# scanner, anytime republication, incremental slides — worker pool vs
# ingest vs readers), the telemetry registry's writer-vs-scraper test, the
# span ring's concurrent writers-vs-snapshot test, the end-to-end trace
# chain and freshness/readiness endpoints, the WAL's group-commit writers,
# the crash-recovery e2e oracles, and the mean-field fast path (its
# determinism-across-GOMAXPROCS contract, the window copy it solves over,
# and the worker-visit publish path, including the publish at the sweep
# that finalizes an epoch's StEM phase), with a fresh -count=1 run so
# schedule/sharding races can't hide behind the test cache.
go test -race -count=1 -run 'Parallel|Recovery|Executor|Trace|Readyz|Freshness|MeanField' \
    ./internal/core ./internal/serve ./internal/obs ./internal/wal

# Perf contracts, without -race: the allocation pins (sweep, posterior,
# slide, mean-field solve, NDJSON decode, ingest, WAL append) and the
# same-run timing ratios (fast ingest vs stdlib, Gibbs sweep vs window
# sweep, slide cost flat in the window, mean-field vs the cold posterior),
# and the accuracy contracts of the warm and rebased epochs (served rates
# against a long StEM reference, within 1.15x the cold schedule's error)
# and of the finalizing publish's means (carried StEM means against the
# window's realized waits, within 1.10x the epoch-end posterior means').
go test -count=1 -run 'Allocs|AllocFree|ZeroBytes|WorkScales|Speed|Accuracy' ./...

# The kernel benchmarks (window sweep, slide, conditional draw, mean-field
# solve) run once each, so their fixtures keep compiling and running.
go test -run '^$' -bench 'WindowSweep|IncrementalSlide|CondSpec|MeanFieldSolve' -benchtime 1x ./internal/core

# The NDJSON decoder converts numbers itself (Eisel–Lemire with a strconv
# fallback), so its differential contract with encoding/json is fuzzed on
# every full verify, starting from the seed corpus.
go test -run '^$' -fuzz FuzzNDJSONDecode -fuzztime 15s ./internal/trace
