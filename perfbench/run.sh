#!/usr/bin/env bash
# Builds the benchmark and the partitiond daemon from the sources of the
# checkout it is run from, then runs the benchmark:
#
#   bash perfbench/run.sh --workload sweep|scale|daemon --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache and the
# Go tool's own config and telemetry files stay under .bench_build/ in that
# root, so a run writes nothing outside it.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/partitiond" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/partitiond and perfbench/ must be present)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

go build -o "$build/bin/partitiond" ./cmd/partitiond
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -root "$root" -partitiond "$build/bin/partitiond" "$@"
