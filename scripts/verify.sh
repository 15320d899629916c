#!/usr/bin/env sh
# Full verification gate: vet, build everything (commands and examples
# included), then run the test suite under the race detector.
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
