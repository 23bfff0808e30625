# Tier-1 verification gate and performance tooling.
#
#   make check      — the tier-1 gate: build, vet, repolint, tests, race tests,
#                     and the benchmark module's vet + tests
#   make lint       — go vet + the repo's own analyzers (cmd/repolint)
#   make ci         — the gate plus gofmt, the lint baseline, and the crash harness
#   make crash      — kill/resume harness + fuzz smokes (DESIGN.md §11)
#   make chaos      — exhaustive crash-point recovery proofs (DESIGN.md §15)
#   make bench      — every table/figure/ablation benchmark + the JSON gates
#   make benchjson  — machine-readable sequential-vs-parallel report
#   make benchobs   — observability overhead gate (DESIGN.md §9, ≤5%)
#   make benchckpt  — checkpoint overhead gate (DESIGN.md §11, ≤5%)
#   make benchsoa   — structure-of-arrays speedup gate (DESIGN.md §12, ≥3x)
#   make benchlint  — incremental lint driver gate (DESIGN.md §8, warm ≤2x vet)
#   make benchshard — sharded million-node engine gate (DESIGN.md §13, core-aware)
#   make benchservice — partitiond latency + cache-hit gate (DESIGN.md §14, ≥10x)
GO ?= go

.PHONY: all build vet lint test race perfbench check ci fmtcheck baselinecheck crash chaos bench benchjson benchobs benchckpt benchsoa benchlint benchshard benchservice clean clean-lintcache

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs go vet plus the determinism-and-safety analyzers from
# internal/lint (seededrand, seedflow, maporder, detmerge, nogoroutine,
# wallclock, checkederr, hotalloc, hotescape — see DESIGN.md §8). Any
# diagnostic fails the target. Results are replayed from the on-disk
# action cache in .lintcache/ when sources and analyzer versions are
# unchanged, so repeat runs cost a fraction of the first.
lint: vet
	$(GO) run ./cmd/repolint ./...

test:
	$(GO) test ./...

# race runs the race detector over the packages that actually share memory
# across goroutines: the worker pool, the observability layer it feeds, the
# fault engine whose injectors run inside pool workers, and the sharded
# gridsim engine whose shard gang ticks one world concurrently. The rest of
# the tree is single-threaded by construction (enforced by the nogoroutine
# analyzer), so a full -race sweep only slows the gate down.
race:
	$(GO) test -race ./internal/faults/... ./internal/parallel/... ./internal/obs/... ./internal/checkpoint/... ./internal/gridsim/...

# perfbench vets and tests the benchmark harness. perfbench/ is a module of
# its own (replace repro => ../), so the root ./... patterns never compile
# it; without this target an API change it depends on would pass the gate
# and only break when the benchmark runs.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# check is the tier-1 gate every PR must keep green (see README).
check: build lint test race perfbench

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

# baselinecheck enforces the lint baseline discipline: no repolint finding
# beyond the committed lint.baseline.json, and the baseline never grows
# stale (every entry must still correspond to a live finding). Regenerate
# a shrunken baseline with scripts/regen_baseline.sh.
baselinecheck:
	sh scripts/check_baseline.sh

# ci is the single command a CI workflow should run: the full tier-1 gate
# plus formatting cleanliness, the lint baseline gate, the kill/resume
# harness, and the exhaustive chaos crash-point proofs.
ci: check fmtcheck baselinecheck crash chaos

bench: benchobs benchckpt benchsoa benchshard
	$(GO) test -bench=. -benchmem ./...

# benchjson regenerates BENCH_parallel.json: ns/op for the sequential vs
# parallel variants of the hot experiment paths.
benchjson:
	$(GO) run ./cmd/benchjson -out BENCH_parallel.json

# benchobs regenerates BENCH_obs.json and enforces the DESIGN.md §9 gate:
# each hot workload measured with instrumentation off and on must stay
# within 5% overhead.
benchobs:
	$(GO) run ./cmd/benchjson -obs -out BENCH_obs.json

# benchckpt regenerates BENCH_checkpoint.json and enforces the DESIGN.md
# §11 gate: a journaled trial ensemble must stay within 5% of the plain
# path.
benchckpt:
	$(GO) run ./cmd/benchjson -checkpoint -out BENCH_checkpoint.json

# benchsoa regenerates BENCH_soa.json and enforces the DESIGN.md §12 gate:
# the structure-of-arrays gridsim and gossip hot paths must hold a 3x
# speedup over the ns/op committed before the rewrite and stay under their
# allocs/op ceilings.
benchsoa:
	$(GO) run ./cmd/benchjson -soa -out BENCH_soa.json

# benchlint regenerates BENCH_lint.json and enforces the DESIGN.md §8 gate:
# a warm-cache repolint run over the whole module must stay within 2x of
# `go vet ./...`.
benchlint:
	$(GO) run ./cmd/benchjson -lint -out BENCH_lint.json

# benchshard regenerates BENCH_shard.json and enforces the DESIGN.md §13
# gate on the million-node sharded engine. The gate is core-aware: with 4+
# CPUs the best multi-shard configuration must hold a 2x speedup over
# single-shard; on smaller hosts a 0.8x no-regression floor runs instead
# (shard parallelism cannot exceed the physical core count).
benchshard:
	$(GO) run ./cmd/benchjson -shard -out BENCH_shard.json

# benchservice regenerates BENCH_service.json and enforces the DESIGN.md
# §14 gate on the resident daemon: submit→result latency through the HTTP
# surface, fresh versus cache-served by a restarted daemon over the same
# state directory, with the cache-served p50 required to beat the fresh p50
# by 10x.
benchservice:
	$(GO) run ./cmd/benchjson -service -out BENCH_service.json

clean: clean-lintcache
	$(GO) clean ./...

# clean-lintcache drops the repolint action cache; the next `make lint`
# rebuilds it from scratch.
clean-lintcache:
	rm -rf .lintcache
