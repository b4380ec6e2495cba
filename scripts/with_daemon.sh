#!/usr/bin/env bash
# Run one command against a freshly built, freshly started paruleld.
#
# Usage: scripts/with_daemon.sh <port> <data-dir> [daemon flags] -- <command…>
#
# Builds ./cmd/paruleld, starts it on localhost:<port> over <data-dir>
# (created if missing; -quiet, plus any daemon flags given), waits for
# /healthz, runs the command, and exits with the command's status. The
# daemon is SIGKILLed on the way out — no drain — so what it leaves in
# <data-dir> is what a crash leaves, which the audit smoke then verifies.
# From the repo root; needs curl.
set -euo pipefail

if [ $# -lt 4 ]; then
  echo "usage: $0 <port> <data-dir> [daemon flags] -- <command…>" >&2
  exit 2
fi
PORT=$1 DATA=$2
shift 2
FLAGS=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do FLAGS+=("$1"); shift; done
if [ $# -lt 2 ]; then
  echo "$0: no command after --" >&2
  exit 2
fi
shift

BIN=$(mktemp -d)
PID=
cleanup() {
  if [ -n "$PID" ]; then
    kill -9 "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
  fi
  rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/paruleld" ./cmd/paruleld
mkdir -p "$DATA"
"$BIN/paruleld" -addr "localhost:$PORT" -data-dir "$DATA" -quiet "${FLAGS[@]}" &
PID=$!
up=0
for _ in $(seq 1 100); do
  if curl -sf "localhost:$PORT/healthz" >/dev/null; then up=1; break; fi
  sleep 0.1
done
if [ "$up" != 1 ]; then
  echo "$0: paruleld never came up on localhost:$PORT" >&2
  exit 1
fi

"$@"
