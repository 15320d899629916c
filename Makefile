GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race verify bench bench-all benchdiff profile fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

verify:
	sh scripts/verify.sh

# bench runs the sequential Gibbs sweep/posterior, ingest, WAL, scheduler
# and mean-field benchmarks and writes the BENCH_*.json baselines;
# bench-all smoke-runs every benchmark once.
bench:
	sh scripts/bench.sh

bench-all:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# benchdiff re-runs the benchmarks and fails on a >20% ns/op or any
# allocs/op regression of the sequential sweep vs BENCH_gibbs.json, and on
# the ingest, WAL, scheduler and mean-field gates in scripts/benchdiff.sh.
benchdiff:
	sh scripts/benchdiff.sh

# profile captures CPU and heap pprof of the posterior hot path into
# results/ with -top summaries; see scripts/profile.sh for knobs.
profile:
	sh scripts/profile.sh

# fuzz runs the two wire-format fuzzers (NDJSON event grammar, WAL record
# framing) for a short fixed budget each; raise with FUZZTIME=1m.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzNDJSONDecode -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzWALRecord -fuzztime $(FUZZTIME) ./internal/wal

