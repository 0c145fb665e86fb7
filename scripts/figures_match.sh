#!/usr/bin/env bash
# Byte-identity of every figure and example between two builds:
#
#   scripts/figures_match.sh PARENT_RELEASE_DIR CHANGE_RELEASE_DIR
#
# Each argument is a cargo `target/release` directory holding the figure
# binaries and the examples, built from its own checkout with
#   cargo build --release --offline -p scalewall-bench --bins
#   cargo build --release --offline --examples
# For both builds this runs every `crates/bench/src/bin/*` figure with
# `--fast`, `fig5_fanout_latency`, `ablation_full_vs_partial` and
# `fig_qos_sla` at the full profile, and every example; it `cmp`s each
# pair of stdouts, prints one line per output (`DIFFERENT` for each one
# that moved) and exits non-zero at the end if any moved.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 2 ]; then
    sed -n '2,14p' "$0" >&2
    exit 2
fi
parent="$1" change="$2"
out="$(mktemp -d "${TMPDIR:-/tmp}/figures-match.XXXXXX")"
trap 'rm -rf "$out"' EXIT

checked=0 moved=0
# check LABEL EXECUTABLE [ARGS...]: EXECUTABLE is relative to a release dir.
check() {
    local label="$1" exe="$2"
    shift 2
    "$parent/$exe" "$@" >"$out/parent"
    "$change/$exe" "$@" >"$out/change"
    checked=$((checked + 1))
    if ! cmp -s "$out/parent" "$out/change"; then
        echo "DIFFERENT  $label"
        cmp "$out/parent" "$out/change" || true
        moved=$((moved + 1))
        return
    fi
    printf 'identical  %-44s %8d bytes\n' "$label" "$(wc -c <"$out/change")"
}

for src in crates/bench/src/bin/*.rs; do
    bin="$(basename "$src" .rs)"
    check "$bin --fast" "$bin" --fast
done
for bin in fig5_fanout_latency ablation_full_vs_partial fig_qos_sla; do
    check "$bin" "$bin"
done
for src in examples/*.rs; do
    example="$(basename "$src" .rs)"
    check "example $example" "examples/$example"
done
if [ "$moved" -gt 0 ]; then
    echo "$moved of $checked outputs moved"
    exit 1
fi
echo "all $checked outputs byte-identical"
