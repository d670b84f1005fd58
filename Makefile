# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); the bench targets exist so a local run leaves
# the same artifacts the bench job uploads.

# bench pipes through tee under pipefail, which is a bashism; dash (the
# default /bin/sh on Debian-family hosts) rejects `set -o pipefail`.
SHELL := /bin/bash

GO ?= go
BENCHTIME ?= 100ms
BENCH_TXT := bench.txt
# BENCH_STAMP names the trajectory snapshot; override it to take several
# snapshots on one day (make bench BENCH_STAMP=2026-08-08b).
BENCH_STAMP ?= $(shell date +%F)
BENCH_DATED := BENCH_$(BENCH_STAMP).json
BENCH_BLOB := BENCH_$(BENCH_STAMP).blob

.PHONY: build test race bench bench-baseline fmt vet lint loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/datagen/... ./internal/engine/ ./internal/loadgen/ \
		./internal/suites/ ./internal/scenario/ ./internal/metrics/ ./internal/stats/ \
		./internal/runstore/ ./internal/stacks/... ./internal/cluster/... ./cmd/bdbench

# bench runs every benchmark with -benchmem, gates the result against the
# checked-in baseline (ns/op geomean + exact-zero allocs/op), and writes a
# dated BENCH_<stamp>.json plus a BENCH_<stamp>.blob run artifact at the
# repo root — the local performance trajectory. Diff two snapshots with
# `go run ./cmd/bdbench compare BENCH_a.blob BENCH_b.blob`.
bench:
	set -o pipefail; \
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=$(BENCHTIME) -timeout 25m ./... | tee $(BENCH_TXT)
	$(GO) run ./internal/tools/benchdiff -in $(BENCH_TXT) \
		-baseline testdata/bench.baseline.json -out $(BENCH_DATED) -out-blob $(BENCH_BLOB)

# bench-baseline refreshes the checked-in baseline after an intentional
# performance change. Review the diff before committing: a zero that became
# nonzero is a lost zero-allocation guarantee, not noise.
bench-baseline:
	set -o pipefail; \
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=$(BENCHTIME) -timeout 25m ./... | tee $(BENCH_TXT)
	$(GO) run ./internal/tools/benchdiff -in $(BENCH_TXT) \
		-update -baseline testdata/bench.baseline.json

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# lint runs bdvet, the repo's own analyzer suite (determinism, zero-alloc
# hot paths, metrics hygiene, context threading — see docs/LINT.md). It
# also runs as `go vet -vettool`; this direct form is faster for ./...
lint:
	$(GO) run ./cmd/bdvet ./...

# loc prints the non-test Go line count outside benchmark/. CI holds it
# under the one integer in testdata/loc.ceiling, so a change that grows the
# code raises that number in its own diff, where a reviewer sees it.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' | xargs cat | wc -l
