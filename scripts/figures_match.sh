#!/usr/bin/env bash
# Byte-identity of every figure and example against the checked-in
# manifest `tests/figure_digests.txt` (`name bytes digest`, the length and
# FNV-1a digest of one output):
#
#   scripts/figures_match.sh [RELEASE_DIR]
#
# RELEASE_DIR (default `target/release`) is a cargo release directory
# holding the figure binaries and the examples, built with
#   cargo build --release --offline -p scalewall-bench --bins
#   cargo build --release --offline --examples
# This runs every `crates/bench/src/bin/*` figure with `--fast` (checked
# against its figure module's line, the one `tests/figure_digests.rs`
# checks; `all_figures` against `all_figures:fast`), `fig5_fanout_latency`,
# `ablation_full_vs_partial` and `fig_qos_sla` at the full profile
# (`<bin>:full`) and every example (`example:<name>`). It prints one line
# per output, `DIFFERENT` and the output's new manifest line for each one
# that moved or has no line, and exits non-zero at the end if any did.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 1 ]; then
    sed -n '2,18p' "$0" >&2
    exit 2
fi
release="${1:-target/release}"
manifest=tests/figure_digests.txt
out="$(mktemp "${TMPDIR:-/tmp}/figures-match.XXXXXX")"
trap 'rm -f "$out"' EXIT

# "bytes digest" of a file: FNV-1a 64 (offset 0xcbf29ce484222325 as a
# signed word, prime 0x100000001b3; shell arithmetic wraps at 64 bits).
fnv1a() {
    local hash=-3750763034362895579 bytes=0 byte
    for byte in $(od -An -v -tu1 "$1"); do
        hash=$(((hash ^ byte) * 1099511628211))
        bytes=$((bytes + 1))
    done
    printf '%d 0x%016x' "$bytes" "$hash"
}

checked=0 moved=0
# check NAME EXECUTABLE [ARGS...]: EXECUTABLE is relative to RELEASE_DIR.
check() {
    local name="$1" exe="$2" line
    shift 2
    "$release/$exe" "$@" >"$out"
    line="$name $(fnv1a "$out")"
    checked=$((checked + 1))
    if ! grep -qxF "$line" "$manifest"; then
        echo "DIFFERENT  $exe${*:+ $*}: its line is now"
        echo "$line"
        moved=$((moved + 1))
        return
    fi
    printf 'identical  %-44s %8d bytes\n' "$exe${*:+ $*}" "$(wc -c <"$out")"
}

for src in crates/bench/src/bin/*.rs; do
    bin="$(basename "$src" .rs)"
    module="$(sed -nE 's/^[^/]*figures::([a-z0-9_]+)::run\(.*/\1/p' "$src")"
    check "${module:-$bin:fast}" "$bin" --fast
done
for bin in fig5_fanout_latency ablation_full_vs_partial fig_qos_sla; do
    check "$bin:full" "$bin"
done
for src in examples/*.rs; do
    example="$(basename "$src" .rs)"
    check "example:$example" "examples/$example"
done
if [ "$moved" -gt 0 ]; then
    echo "$moved of $checked outputs moved"
    exit 1
fi
echo "all $checked outputs match $manifest"
