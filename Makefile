# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml).

GO ?= go
BENCHTIME ?= 100ms

.PHONY: build test race bench fmt vet lint loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/datagen/... ./internal/engine/ ./internal/loadgen/ \
		./internal/suites/ ./internal/scenario/ ./internal/metrics/ ./internal/stats/ \
		./internal/runstore/ ./internal/stacks/... ./internal/workloads/oltp/ \
		./internal/cluster/... ./cmd/bdbench

# bench runs every microbenchmark with -benchmem, for looking: nothing is
# gated on it and nothing is written. Performance is judged by the repo
# benchmark (`go run ./benchmark`, see docs/PERFORMANCE.md).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=$(BENCHTIME) -timeout 25m ./...

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# lint runs bdvet, the repo's own analyzer suite (determinism, zero-alloc
# hot paths, metrics hygiene, context threading — see docs/LINT.md).
lint:
	$(GO) run ./cmd/bdvet ./...

# loc prints the non-test Go line count outside benchmark/ and outside
# testdata/ (analyzer fixtures are test data by Go's own convention). CI
# holds it under the one integer in testdata/loc.ceiling, so a change that
# grows the code raises that number in its own diff, where a reviewer sees it.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' -e '/testdata/' | xargs cat | wc -l
