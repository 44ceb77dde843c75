# Convenience targets for the migflow reproduction.

GO ?= go

.PHONY: all build vet test race bench bench-check bench-pair repro repro-quick examples cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repository's one record of performance: the full bench/ set
# (BENCHMARK.json's eight workloads x 5 repetitions, about 3 min),
# built into and reported under .bench_build/. bench/README.md has the
# per-workload, -trace 1 (layer probes + budget) and diff forms. The
# Benchmark* functions left in the tree are unrecorded scenarios bench/
# does not time (DESIGN.md "Inventory"): run one with
# `go test -bench <name> -run '^$$' ./internal/<pkg>/`.
bench:
	bash bench/run.sh

# bench/ is its own module (BENCHMARK.json's contract), so tier-1 never
# compiles it: run this beside tier-1 whenever an exported internal/
# signature changes.
bench-check:
	$(GO) vet -C bench .
	$(GO) test -C bench .

# The evidence a performance claim needs (ROADMAP "Open items"): N
# alternating parent/change pairs of one BENCHMARK.json workload —
# working tree against BASE, exported to a temporary directory — with
# each side's median and quartiles and the pair wins per end-to-end
# metric. About 40 s per pair. `make bench-pair W=btmz_ult_lb N=10`;
# W=all runs every workload in turn and prints one table.
N ?= 10
BASE ?= HEAD

bench-pair:
	$(GO) run ./cmd/benchpair -w $(W) -n $(N) -base $(BASE)

# Regenerate every table and figure of the paper's evaluation.
repro:
	$(GO) run ./cmd/repro

repro-quick:
	$(GO) run ./cmd/repro -quick

# CSV series for plotting.
repro-csv:
	$(GO) run ./cmd/repro -csv figures

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/stencil
	$(GO) run ./examples/loadbalance
	$(GO) run ./examples/bigsim
	$(GO) run ./examples/faulttolerance

cover:
	$(GO) test ./... -coverpkg=./internal/... -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt
	rm -rf figures
