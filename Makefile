GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race verify bench-all profile fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

verify:
	sh scripts/verify.sh

# bench-all smoke-runs every benchmark once. Perf regressions are caught by
# the timing and allocation contract tests in `go test ./...` and, end to
# end, by `bash bench/run.sh -compare` (see bench/README.md).
bench-all:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# profile captures CPU and heap pprof of the posterior hot path into
# results/ with -top summaries; see scripts/profile.sh for knobs.
profile:
	sh scripts/profile.sh

# fuzz runs the two wire-format fuzzers (NDJSON event grammar, WAL record
# framing) for a short fixed budget each; raise with FUZZTIME=1m.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzNDJSONDecode -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzWALRecord -fuzztime $(FUZZTIME) ./internal/wal

