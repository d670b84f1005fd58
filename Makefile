# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml).

GO ?= go
BENCHTIME ?= 100ms

.PHONY: build test race bench fmt vet lint loc surface

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/datagen/... ./internal/engine/ ./internal/loadgen/ \
		./internal/suites/ ./internal/scenario/ ./internal/metrics/ ./internal/stats/ \
		./internal/runstore/ ./internal/stacks/... ./internal/workloads/... \
		./internal/opcompose/ ./internal/testgen/ ./internal/cluster/... ./cmd/bdbench

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
# hot paths, context threading — see docs/LINT.md).
lint:
	$(GO) run ./cmd/bdvet ./...

# loc prints the non-test Go line count outside benchmark/ and outside
# testdata/ (analyzer fixtures are test data by Go's own convention). CI
# holds it under the one integer in testdata/loc.ceiling, so a change that
# grows the code raises that number in its own diff, where a reviewer sees it.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' -e '/testdata/' | xargs cat | wc -l

# surface prints the functions nothing runs, for looking (nothing is gated on
# it): every binary is built with coverage over the whole module, driven
# through the repo benchmark, the bdbench subcommands and the examples, and
# what is left at 0.0% outside benchmark/, cmd/, examples/ is listed. What
# may stay on the list is in TestInternalNamesHaveCallers' callerless table
# and docs/PERFORMANCE.md.
surface:
	@set -e; t=$$(mktemp -d); trap 'rm -rf "$$t"' EXIT; mkdir "$$t/bin" "$$t/cov"; \
	for p in cmd/bdbench benchmark examples/*; do \
		$(GO) build -cover -coverpkg=./... -o "$$t/bin/$${p##*/}" "./$$p"; \
	done; \
	export GOCOVERDIR="$$t/cov"; b="$$t/bin/bdbench"; \
	run() { "$$@" >/dev/null 2>"$$t/err" || { echo "surface: $$* failed:" >&2; cat "$$t/err" >&2; exit 1; }; }; \
	run "$$t/bin/benchmark" -seconds 1; \
	for c in table1 table2 "figure1 -suite YCSB" figure2 figure3 figure4 suites workloads "workloads -ops" \
		prescriptions "experiments -quick" "run -suite BigDataBench -format markdown" \
		"run -spec testdata/scenario.sample.json -out $$t/a.blob" \
		"run -spec testdata/scenario.composed.json -out $$t/b.blob" \
		"run -spec testdata/scenario.sample.json -progress" \
		"show $$t/a.blob" "show -format json -meta $$t/a.blob" \
		"compare $$t/a.blob $$t/a.blob" "compare -format markdown $$t/b.blob $$t/b.blob" \
		"datagen -workload weblog -out $$t/w.blob" "datagen -workload graph -format json" \
		"loadcurve -workload grep -rates 20,40 -duration 500ms -arrival ramp" \
		"run -suite HiBench -rate 20 -arrival bursty -duration 500ms" \
		"run -suite GridMix -rate 20 -trace weblog -duration 500ms" \
		"run -suite YCSB -validate" \
		"run -suite LinkBench -reps 2 -warmup 1 -timeout 30s -profile cpu -profile-dir $$t"; do \
		run $$b $$c; \
	done; \
	for e in examples/*; do run "$$t/bin/$${e##*/}"; done; \
	unset GOCOVERDIR; \
	$(GO) tool covdata textfmt -i="$$t/cov" -o "$$t/cover.txt"; \
	$(GO) tool cover -func="$$t/cover.txt" | awk '$$NF == "0.0%"' | grep -v -e /benchmark/ -e /cmd/ -e /examples/
