# Convenience targets for the migflow reproduction.

GO ?= go

.PHONY: all build vet test race bench-check bench-pair bench bench-collectives bench-lb bench-bigsim bench-ampi bench-eventmigrate bench-transport bench-all repro repro-quick examples cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

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
# metric. About 40 s per pair. `make bench-pair W=btmz_ult_lb N=10`.
N ?= 10
BASE ?= HEAD

bench-pair:
	$(GO) run ./cmd/benchpair -w $(W) -n $(N) -base $(BASE)

# Hot-path benchmarks; writes BENCH_hotpath.json (name → ns/op,
# allocs/op) so before/after numbers ride along with each PR.
# BENCHFLAGS tunes run length (e.g. BENCHFLAGS=-benchtime=10x in CI).
HOTPATH_PKGS = ./internal/comm/ ./internal/core/ ./internal/vmem/
BENCHFLAGS ?=

bench: bench-collectives bench-lb bench-bigsim
	$(GO) test -bench . -benchmem -run '^$$' $(BENCHFLAGS) $(HOTPATH_PKGS) | tee bench_output.txt
	$(GO) run ./cmd/benchjson < bench_output.txt > BENCH_hotpath.json
	$(GO) test -bench 'BenchmarkMigrate|BenchmarkLBStep' -benchmem -run '^$$' $(BENCHFLAGS) ./internal/migrate/ | tee bench_migrate_output.txt
	$(GO) run ./cmd/benchjson < bench_migrate_output.txt > BENCH_migrate.json

# Collectives + aggregation A/B: flat vs tree barrier/allreduce at
# P ∈ {8,64,256}, rank-order vs topology-aware spanning trees (hops
# columns count torus hops crossed by tree edges), the BT-MZ
# split-phase overlap A/B (off-ms/on-ms makespans per flow backend),
# and per-message vs aggregated ghost/boundary exchange (vns/op
# columns are modeled virtual time).
bench-collectives:
	$(GO) test -bench 'BenchmarkColl|BenchmarkAgg|BenchmarkGhost|BenchmarkBTMZ' -benchmem -run '^$$' $(BENCHFLAGS) \
		./internal/ampi/ ./internal/comm/ ./internal/bigsim/ ./internal/npb/ | tee bench_collectives_output.txt
	$(GO) run ./cmd/benchjson < bench_collectives_output.txt > BENCH_collectives.json

# Load-balancing + stealing A/B: plan cost of the seed linear-scan
# greedy vs the heap greedy vs the hierarchical strategy at
# P ∈ {8,64,256} × {1k,16k} items, and the BT-MZ modeled makespan
# with idle-cycle work stealing off vs on (vns/op is modeled time).
bench-lb:
	$(GO) test -bench 'BenchmarkLBPlan' -benchmem -run '^$$' $(BENCHFLAGS) ./internal/loadbalance/ | tee bench_lb_output.txt
	$(GO) test -bench 'BenchmarkStealMakespan' -benchmem -run '^$$' $(BENCHFLAGS) ./internal/npb/ | tee -a bench_lb_output.txt
	$(GO) run ./cmd/benchjson < bench_lb_output.txt > BENCH_lb.json

# BigSim backend A/B: wall-clock ns/step and resident B/flow for the
# ULT (goroutine-per-target) and event-driven backends at 12,800 and
# 200,704 (paper-scale) target processors. The ULT backend at paper
# scale is gated behind BIGSIM_ULT_PAPER=1 — it needs a stack and two
# channels per target.
bench-bigsim:
	$(GO) test -bench 'BenchmarkBigSimStep|BenchmarkGhostExchange' -benchmem -run '^$$' $(BENCHFLAGS) \
		./internal/bigsim/ | tee bench_bigsim_output.txt
	$(GO) test -bench 'BenchmarkDeliver' -benchmem -benchtime=20000x -run '^$$' ./internal/sdag/ | tee -a bench_bigsim_output.txt
	$(GO) run ./cmd/benchjson < bench_bigsim_output.txt > BENCH_bigsim.json

# AMPI rank-backend A/B plus the headline event-mode run: the same
# Jacobi job with ULT and event ranks at 16,384 ranks, then event
# ranks alone at AMPI_BENCH_RANKS (default one million). Reports wall
# ns/step and resident B/rank; a ULT rank carries an isomalloc stack
# and a goroutine, an event rank is a ~184-byte continuation record.
AMPI_BENCH_RANKS ?= 1000000

bench-ampi:
	AMPI_BENCH_RANKS=$(AMPI_BENCH_RANKS) $(GO) test -bench 'BenchmarkAMPIJacobi' -benchmem -benchtime=1x -timeout 30m -run '^$$' \
		./internal/ampi/ | tee bench_ampi_output.txt
	$(GO) run ./cmd/benchjson < bench_ampi_output.txt > BENCH_ampi_event.json

# Migration-mechanism A/B plus the headline LB step: the same parked
# Jacobi job rotated between PEs with event continuation records vs
# the three ULT stack strategies (ns/rank, B/rank migrated), one full
# greedy LB step over EVENTMIG_RANKS event ranks (default one
# million), and the skewed-zone BT-MZ makespan before/after LB.
EVENTMIG_RANKS ?= 1000000

bench-eventmigrate:
	EVENTMIG_RANKS=$(EVENTMIG_RANKS) $(GO) test -bench 'BenchmarkEventMigrate|BenchmarkEventLBStepMillion|BenchmarkBTMZEventLB' \
		-benchmem -benchtime=1x -timeout 30m -run '^$$' \
		./internal/ampi/ ./internal/npb/ | tee bench_eventmigrate_output.txt
	$(GO) run ./cmd/benchjson < bench_eventmigrate_output.txt > BENCH_eventmigrate.json

# Transport A/B: in-process ring-buffer Send vs cross-process socket
# Send (single-message and coalesced-stream ns/op, B/op, ghosts per
# envelope), plus event-rank migration across a live socket (ns/rank).
bench-transport:
	$(GO) test -bench 'BenchmarkTransport|BenchmarkCrossProcessMigration' -benchmem -run '^$$' $(BENCHFLAGS) \
		./internal/shard/ | tee bench_transport_output.txt
	$(GO) run ./cmd/benchjson < bench_transport_output.txt > BENCH_transport.json

# Every named benchmark family, each writing its BENCH_*.json
# (bench already pulls in collectives/lb/bigsim).
bench-all: bench bench-ampi bench-eventmigrate bench-transport

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
	rm -f cover.out test_output.txt bench*_output.txt
	rm -rf figures
