#!/usr/bin/env bash
# Names only tests reach: every `pub`/`pub(crate)` fn, struct, enum,
# const, type or trait under crates/*/src whose name occurs nowhere in
# non-test code except at its own definition(s). Non-test code is what
# scripts/loc.sh counts (lines before a file's first `#[cfg(test)]`) plus
# crates/*/benches, examples/, src/ and benchmark/src, comments dropped.
# Each line shows where the item is defined and how often test code
# (tests/, crates/*/tests, benchmark/tests and every `#[cfg(test)]` tail)
# names it. The match is by name, so an item that shares its name with
# something live is never listed. A report, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

{
    find crates/*/src crates/*/benches examples src benchmark/src -name '*.rs' | sort | sed 's/^/split /'
    find tests crates/*/tests benchmark/tests -name '*.rs' | sort | sed 's/^/test /'
} | awk '
    { mode[$2] = $1; files[++n] = $2 }
    END {
        for (i = 1; i <= n; i++) {
            f = files[i]; live = (mode[f] == "split"); lib = (f ~ /^crates\/[^\/]+\/src\//); ln = 0
            while ((getline line < f) > 0) {
                ln++
                if (line ~ /^#\[cfg\(test\)\]/) live = 0
                # Drop a comment: `//` not preceded by `:` (keeps URLs).
                rest = line; code = ""
                while ((k = index(rest, "//")) > 0) {
                    if (k > 1 && substr(rest, k - 1, 1) == ":") {
                        code = code substr(rest, 1, k + 1)
                        rest = substr(rest, k + 2)
                        continue
                    }
                    rest = substr(rest, 1, k - 1)
                    break
                }
                code = code rest
                if (live && lib && match(code, /^[ \t]*pub(\([a-z]+\))?[ \t]+((const|unsafe)[ \t]+)?(fn|struct|enum|const|type|trait)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
                    d = substr(code, RSTART, RLENGTH)
                    m = split(d, w, /[ \t]+/); name = w[m]; kind = w[m - 1]
                    defs[++nd] = name; where[nd] = f ":" ln; kinds[nd] = kind; ndef[name]++
                }
                while (match(code, /[A-Za-z_][A-Za-z0-9_]*/)) {
                    tok = substr(code, RSTART, RLENGTH)
                    if (live) uses[tok]++; else tests[tok]++
                    code = substr(code, RSTART + RLENGTH)
                }
            }
            close(f)
        }
        for (i = 1; i <= nd; i++) {
            name = defs[i]
            if (uses[name] - ndef[name] > 0) continue
            printf "%-48s %-6s %-34s test uses %d\n", where[i], kinds[i], name, tests[name] + 0
            listed++
        }
        printf "%d names unreferenced outside tests\n", listed + 0
    }
'
