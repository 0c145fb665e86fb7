#!/usr/bin/env bash
# Every figure and example output, byte for byte, against its checked-in
# golden file under `tests/figures/`:
#
#   scripts/figures_match.sh [RELEASE_DIR]
#
# RELEASE_DIR (default `target/release`) is a cargo release directory
# holding the figure binaries and the examples, built with
#   cargo build --release --offline -p scalewall-bench --bins
#   cargo build --release --offline --examples
# This renders every output into a scratch directory: each
# `crates/bench/src/bin/*` figure with `--fast` as `<module>.txt` (the
# file `tests/figure_digests.rs` checks) and at the full profile as
# `<bin>.full.txt`, `all_figures --fast` as `all_figures.fast.txt`, and
# each example as `example.<name>.txt`. Only once every output is
# written does it replace `tests/figures/` with them, so an interrupted
# or failed run leaves the golden files as they were. It then fails
# unless `git status --porcelain -- tests/figures` is empty, so a
# modified, deleted or untracked golden file fails it. A re-pin is: run
# this, review `git diff -- tests/figures`, commit.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 1 ]; then
    sed -n '2,20p' "$0" >&2
    exit 2
fi
release="${1:-target/release}"
dir=tests/figures
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

for src in crates/bench/src/bin/*.rs; do
    bin="$(basename "$src" .rs)"
    module="$(sed -nE 's/^[^/]*figures::([a-z0-9_]+)::run\(.*/\1/p' "$src")"
    "$release/$bin" --fast >"$out/${module:-$bin.fast}.txt"
    [ -z "$module" ] || "$release/$bin" >"$out/$bin.full.txt"
done
for src in examples/*.rs; do
    example="$(basename "$src" .rs)"
    "$release/examples/$example" >"$out/example.$example.txt"
done
rm -rf "$dir" && mkdir "$dir" && cp "$out"/* "$dir"/

if [ -n "$(git status --porcelain -- "$dir")" ]; then
    git status --short -- "$dir"
    echo "golden outputs moved: review \`git diff -- $dir\` and commit it if intended" >&2
    exit 1
fi
echo "all $(find "$dir" -type f | wc -l) outputs match $dir"
