#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, server data, span files)
# stays under .bench_build/perfbench in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Rebuild only when the Go sources or module files changed (by content), so
# a run does not rewrite an unchanged binary and leave the disk flushing it.
bin="$out/perfbench"
src=$(cd "$root" && find . \( -path ./.bench_build -o -path ./.git \) -prune -o \( -name '*.go' -o -name go.mod \) -type f -print0 |
	sort -z | xargs -0 sha256sum | sha256sum)
if [ ! -x "$bin" ] || [ "$(cat "$bin.src" 2>/dev/null)" != "$src" ]; then
	(cd "$root/perfbench" && go build -o "$bin" .) >&2
	printf '%s\n' "$src" >"$bin.src"
fi
exec "$bin" "$@"
