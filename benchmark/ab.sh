#!/usr/bin/env bash
# A/B runs for a change that claims a gain: the rule later performance PRs
# must meet (choosing-metrics guide, section 8).
#
#   benchmark/ab.sh <ref> [pairs] [seed]
#
# Builds this commit's harness twice — once against the program at <ref>,
# once against the program at HEAD, so both sides are measured with
# identical benchmark code — then runs all four workloads on each side
# [pairs] times (default 10), alternating which side goes first, every run
# on the same seed (default 1), so that the spread between runs is the
# host's and not the inputs'. Prints, per workload and metric, both
# medians, the base's quartiles, the ratio with its base, pair wins, the
# run-to-run spread and the verdict against the bound in BENCHMARK.json.
# Exits non-zero if anything regressed. A claim must also hold on a seed
# not used while the change was written: run it again with another.
#
# HEAD means the committed HEAD: commit first. AB_TRACE=1 adds the layer
# ledger to every run. Work happens under .bench_build/ab, which is
# removed first.
set -euo pipefail
ref="${1:?usage: benchmark/ab.sh <ref> [pairs] [seed]}"
pairs="${2:-10}"
seed="${3:-1}"
root="$(git rev-parse --show-toplevel)"
work="$root/.bench_build/ab"
rm -rf "$work"
mkdir -p "$work/a" "$work/b" "$work/out/a" "$work/out/b"
git -C "$root" archive "$ref" | tar -x -C "$work/a"
git -C "$root" archive HEAD | tar -x -C "$work/b"
# Identical benchmark code on both sides: HEAD's.
rm -rf "$work/a/benchmark" "$work/a/BENCHMARK.json"
cp -r "$work/b/benchmark" "$work/a/benchmark"
cp "$work/b/BENCHMARK.json" "$work/a/BENCHMARK.json"
for side in a b; do
	go -C "$work/$side/benchmark" build -o "$work/$side/harness" .
done
# The exported trees are not repositories; each side is told its commit.
commit_a="$(git -C "$root" rev-parse "$ref^{commit}")"
commit_b="$(git -C "$root" rev-parse HEAD)"
run() { # side, pair
	local out commit
	out="$work/out/$1/run-$(printf %02d "$2")"
	if [ "$1" = a ]; then commit="$commit_a"; else commit="$commit_b"; fi
	(cd "$work/$1" && BENCHMARK_COMMIT="$commit" ./harness -seed "$seed" -trace "${AB_TRACE:-0}" -out "$out" >"$out.log" 2>&1) ||
		echo "ab: side $1 pair $2 reported failures, see $out.log" >&2
}
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then order="a b"; else order="b a"; fi
	for side in $order; do
		echo "pair $i/$pairs: side $side ($([ "$side" = a ] && echo "$ref" || echo HEAD))" >&2
		run "$side" "$i"
	done
done
cd "$work/b"
exec ./harness compare "$work/out/a" "$work/out/b"
