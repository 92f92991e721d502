# Build, test and benchmark entry points. `make bench` runs the
# microbenchmark suite and normalizes it into the BENCH_*.json perf
# trajectory (see README "Performance"); set BENCH_BASELINE to a prior
# BENCH_*.json (or raw `go test -bench` text) to record speedups.

GO ?= go

# Perf-trajectory knobs. When BENCH_BASELINE is set, benchjson also
# gates the run: b/op or allocs/op regressions beyond BENCH_GATE_TOL
# fail `make bench` (set BENCH_GATE=0 to record without gating).
BENCH_N        ?= 34
BENCH_OUT      ?= BENCH_$(BENCH_N).json
BENCH_COUNT    ?= 3
BENCH_REGEX    ?= .
BENCH_PKGS     ?= ./internal/memsys ./internal/core ./internal/tune ./internal/report
BENCH_BASELINE ?=
BENCH_GATE     ?= 1
BENCH_GATE_TOL ?= 0.10

.PHONY: build test vet lint bench clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The determinism-contract analyzer suite (see internal/analysis):
# zero findings required.
lint:
	@mkdir -p bin
	$(GO) build -o bin/servet-vet ./cmd/servet-vet
	./bin/servet-vet ./...

# Benchmarks only (-run '^$' skips tests); -benchmem so the trajectory
# tracks allocations, -count so benchjson can keep the best run. The
# target refuses to write its output over the baseline it gates
# against, so a gate run against a committed BENCH_*.json names its
# own BENCH_OUT.
bench:
	$(if $(BENCH_BASELINE),$(if $(filter $(abspath $(BENCH_OUT)),$(abspath $(BENCH_BASELINE))),\
		$(error BENCH_OUT=$(BENCH_OUT) would overwrite BENCH_BASELINE; set BENCH_OUT to another file)))
	@mkdir -p bin
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench '$(BENCH_REGEX)' -benchmem -count $(BENCH_COUNT) $(BENCH_PKGS) \
		| ./bin/benchjson -issue $(BENCH_N) -o $(BENCH_OUT) \
			$(if $(BENCH_BASELINE),-baseline $(BENCH_BASELINE) \
				$(if $(filter-out 0,$(BENCH_GATE)),-gate -gate-tol $(BENCH_GATE_TOL)))
	@echo "wrote $(BENCH_OUT)"

clean:
	rm -rf bin
