#!/usr/bin/env bash
# Builds cmd/pipserve and the perfbench program from the checkout this is
# run in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serve-solve --seed 3 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 20
#
# Everything the build and the run write stays under .bench_build/ of the
# checkout (Go build cache included). Compiling is not part of any metric.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/pipserve" ]; then
  echo "run.sh: no pip module here (go.mod, cmd/pipserve); run it from the repository root" >&2
  exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
# With telemetry on (or "local", the default) the go command starts a
# detached upload process that outlives the build; turn it off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/pipserve" ./cmd/pipserve
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --pipserve "$out/bin/pipserve" "$@"
