#!/usr/bin/env bash
# Who sets each config knob: every `pub` field of a `pub struct` named
# `*Config`, `*Policy` or `*Timings`, or `AppSpec`, under crates/*/src.
# A file sets a field when it names it as `field:` inside a literal of its
# struct, or assigns `.field =`, in code outside tests (crates/*/src up to
# a file's first `#[cfg(test)]`, crates/*/benches, examples/ and
# benchmark/src; comments and strings dropped). Each line shows the
# defining file, the field and how many other files set it; `*` marks a
# field only its own file sets (its `Default` or a constructor). Ends with
# the total. A report, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src crates/*/benches examples benchmark/src -name '*.rs' | sort | awk '
    { files[++n] = $0 }
    END {
        for (i = 1; i <= n; i++) {  # the structs and their pub fields
            f = files[i]; cur = ""
            if (f !~ /^crates\/[^\/]+\/src\//) continue
            while ((getline line < f) > 0 && line !~ /^#\[cfg\(test\)\]/) {
                if (line ~ /^pub struct [A-Za-z]*(Config|Policy|Timings|AppSpec) \{/) {
                    split(line, w, /[ {]+/); cur = w[3]; home[cur] = f
                } else if (line ~ /^\}/) {
                    cur = ""
                } else if (cur != "" && match(line, /^    pub [a-z_0-9]+:/)) {
                    name = substr(line, 9, RLENGTH - 9); key[++nf] = cur "::" name
                    where[nf] = f; field[nf] = name; known[cur "::" name] = 1
                }
            }
            close(f)
        }
        for (i = 1; i <= n; i++) {  # who sets them
            f = files[i]; depth = 0
            while ((getline line < f) > 0 && line !~ /^#\[cfg\(test\)\]/) {
                gsub(/\\./, "", line); gsub(/"[^"]*"/, "", line); gsub(/'\''.'\''/, "", line)
                sub(/\/\/.*/, "", line)
                while (match(line, /->[ \t]*[A-Za-z_]+[ \t]*\{|(struct|impl|enum|for)[ \t]+[A-Za-z_<>]+[ \t]*\{|[A-Z][A-Za-z]*[ \t]*\{|\{|\}|\.[a-z_0-9]+[ \t]*=[^=]|[a-z_0-9]+[ \t]*:[^:]/)) {
                    tok = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
                    name = tok; sub(/^\./, "", name); sub(/[ \t]*[:={].*/, "", name)
                    if (tok == "}") depth -= depth > 0
                    else if (tok ~ /\{$/) stack[++depth] = (name in home) ? name : ""
                    else if (tok ~ /^\./) dot[name, f] = 1
                    else if (depth && ((stack[depth] "::" name) in known)) set[stack[depth] "::" name, f] = 1
                }
            }
            close(f)
        }
        for (k = 1; k <= nf; k++) {
            c = 0
            for (i = 1; i <= n; i++)
                c += files[i] != where[k] && (((key[k], files[i]) in set) || ((field[k], files[i]) in dot))
            printf "%-38s %-48s %3d%s\n", where[k], key[k], c, c ? "" : " *"
            marked += !c
        }
        printf "%d pub config fields, %d set only where defined\n", nf, marked
    }
'
