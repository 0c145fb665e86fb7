#!/usr/bin/env bash
# Non-test lines per crate: for every crates/*/src/**/*.rs, the lines
# before the first one starting `#[cfg(test)]` (the whole file when there
# is none). The one definition behind the sizes ROADMAP.md quotes. With
# arguments, sizes those files instead.
set -euo pipefail
cd "$(dirname "$0")/.."

count='FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }'

if [ "$#" -gt 0 ]; then
    for f in "$@"; do
        printf '%-44s %6d\n' "$f" "$(awk "$count" "$f")"
    done
    exit 0
fi

total=0
for dir in crates/*/; do
    n="$(find "${dir}src" -name '*.rs' -print0 | xargs -0 awk "$count")"
    printf '%-16s %6d\n' "$(basename "$dir")" "$n"
    total=$((total + n))
done
printf '%-16s %6d\n' "all crates" "$total"
