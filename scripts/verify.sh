#!/usr/bin/env sh
# Full verification gate: vet, build everything (commands and examples
# included), run the test suite under the race detector, then run the
# timing and allocation contracts without it (they skip under -race).
set -eux

cd "$(dirname "$0")/.."

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
# and the worker-visit publish path), with a fresh -count=1 run so
# schedule/sharding races can't hide behind the test cache.
go test -race -count=1 -run 'Parallel|Recovery|Executor|Trace|Readyz|Freshness|MeanField' \
    ./internal/core ./internal/serve ./internal/obs ./internal/wal

# Perf contracts, without -race: the allocation pins (sweep, posterior,
# slide, mean-field solve, NDJSON decode, ingest, WAL append) and the
# same-run timing ratios (fast ingest vs stdlib, Gibbs sweep vs window
# sweep, slide cost flat in the window, mean-field vs the cold posterior).
go test -count=1 -run 'Allocs|AllocFree|ZeroBytes|WorkScales|Speed' ./...
