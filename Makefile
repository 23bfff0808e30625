# Tier-1 verification gate and performance tooling.
#
#   make check      — the tier-1 gate: build, vet, tests (the lint audit among
#                     them), race tests, and the benchmark module's vet + tests
#   make lint       — go vet + the root lint audit (all nine internal/lint analyzers)
#   make ci         — the gate plus gofmt, the crash harness and the chaos proofs
#   make crash      — kill/resume harness + fuzz smokes (DESIGN.md §11)
#   make chaos      — exhaustive crash-point recovery proofs (DESIGN.md §15)
#   make bench      — the benchmark: perfbench's sweep, scale and daemon
#                     workloads (perfbench/README.md)
GO ?= go

.PHONY: all build vet lint test race perfbench check ci fmtcheck crash chaos bench clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs go vet plus the root lint audit (TestLintSuite in
# lintsuite_test.go): one load of ./..., tests included, checked by all nine
# analyzers from internal/lint (seededrand, seedflow, maporder, detmerge,
# nogoroutine, wallclock, checkederr, hotescape, unusedexport — see
# DESIGN.md §8). Any finding fails the target. `go run ./cmd/repolint -fix`
# applies the safe suggested fixes.
lint: vet
	$(GO) test -count=1 -run '^TestLintSuite$$' .

test:
	$(GO) test ./...

# race runs the race detector over the packages that actually share memory
# across goroutines: the worker pool, the observability layer it feeds, the
# fault engine whose injectors run inside pool workers, the sharded gridsim
# engine whose shard gang ticks one world concurrently, topology, whose
# route tables concurrent studies of one seed fork and read, and dataset,
# whose Generate builds the topology on one goroutine while the node draws
# run on another, and whose RunTrace runs its block and sample steps as two
# tasks sharing batches of lag-state snapshots. The rest of the tree is
# single-threaded by construction (enforced by the nogoroutine analyzer),
# so a full -race sweep only slows the gate down. TestTraceGolden is
# skipped for its cost (its 60-day trace would take about half a minute of
# the race run); TestRunTraceMatchesSequentialOracle is the race check of
# RunTrace's two tasks, on short traces around the phase length, at
# GOMAXPROCS 1 and the default, and four at once.
race:
	$(GO) test -race -skip '^TestTraceGolden$$' ./internal/faults/... ./internal/parallel/... ./internal/obs/... ./internal/checkpoint/... ./internal/gridsim/... ./internal/topology/... ./internal/dataset/...

# perfbench vets and tests the benchmark harness. perfbench/ is a module of
# its own (replace repro => ../), so the root ./... patterns never compile
# it; without this target an API change it depends on would pass the gate
# and only break when the benchmark runs.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# check is the tier-1 gate every PR must keep green (see README). It takes
# vet rather than lint because test already runs the lint audit.
check: build vet test race perfbench

# fmtcheck fails if any file is not gofmt-clean.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# crash proves the crash-safety layer against the built CLI: kill a
# checkpointed `experiment all` at experiment boundaries and resume it
# byte-identical at workers 1 and 8, check the degraded-mode exit codes,
# and smoke the hardened decoders under short fuzz runs (DESIGN.md §11).
crash:
	sh scripts/crash_harness.sh

# chaos proves partitiond's durability stack point by point (DESIGN.md §15):
# record every write/fsync/rename/dirsync a checkpointed `experiment all`
# performs through the iofault seam, then crash a fresh run at each point —
# torn final write included, under both the truncate-at-point and power-off
# models — restart the daemon over the survivors, and require output
# byte-identical to the uninterrupted run. Without CHAOS_EXHAUSTIVE the same
# test runs a structural sample of points (the default `go test` path).
chaos:
	CHAOS_EXHAUSTIVE=1 $(GO) test -run 'TestChaos' -count=1 ./internal/integration/

# ci is the single command a CI workflow should run: the full tier-1 gate
# plus formatting cleanliness, the kill/resume harness, and the exhaustive
# chaos crash-point proofs.
ci: check fmtcheck crash chaos

# bench runs the one benchmark harness, perfbench, on each of its three
# workloads: the in-process paper sweep, the paper-scale kernels, and the
# partitiond daemon under load (perfbench/README.md). Go micro-benchmarks
# stay reachable with `go test -bench=. -benchmem ./...`.
bench:
	for w in sweep scale daemon; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 15 --trace 0 || exit 1; \
	done

clean:
	$(GO) clean ./...
