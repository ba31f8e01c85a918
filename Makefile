# Developer entry points. CI runs the same commands; see
# .github/workflows/ci.yml.

GO ?= go

.PHONY: build test race bench bench-baseline bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./internal/...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 0.5s .

# bench-baseline re-measures the C16 parallel-scalability cells, the
# C17 composite-event cells, the C18 snapshot-scan race, the C19
# replication cells, the C20 planner join cells, and the C21
# parallel-executor cells, rewriting the committed baseline. Run it
# on a quiet machine after a deliberate perf change, and commit
# BENCH_10.json with the change that moved the numbers. On a noisy
# box, run it several times and keep the per-cell max — the committed
# baseline is a ceiling for the gate, not a scoreboard.
bench-baseline:
	$(GO) run ./cmd/hipac-bench -run C16,C17,C18,C19,C20,C21 -json BENCH_10.json

# bench-smoke is the CI regression gate: re-measure and fail if any
# C16-C21 cell is more than 20% slower than the committed baseline
# (skipped with a warning when the host CPU count or GOMAXPROCS
# differs from the baseline's).
bench-smoke:
	$(GO) run ./cmd/hipac-bench -run C16,C17,C18,C19,C20,C21 -compare BENCH_10.json
