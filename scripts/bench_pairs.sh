#!/usr/bin/env bash
# The pairs protocol of a perf claim (choosing-metrics §8) as one command:
# for every SEED one parent run and one change run of WORKLOAD, SECONDS
# each, alternating which side goes first; then per end-to-end metric both
# medians, the parent's quartiles, how many pairs the change won and a
# verdict, and whether the sim-clock metrics and the run digest repeated
# bit for bit in every pair (a pure speed-up must leave them identical;
# the digest, which `--out` writes, covers every count of the
# simulation). The verdict is `better` when the change won at least 9 in
# 10 pairs and its median beats the parent's by more than the parent's
# interquartile range, `worse` when its median is worse than the parent's
# by more than the metric's bound in BENCHMARK.json, and `ok` otherwise.
#
#   scripts/bench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD SECONDS SEED...
#
# The two binaries are `benchmark/` builds of the two commits (build each
# once, `cargo build --release --offline --manifest-path benchmark/Cargo.toml`
# with its own CARGO_TARGET_DIR, and copy the executable). The result line
# each run prints last on stdout and the digest in its `--out` file are
# read; a run without either (wrong answer, digest mismatch) stops the
# script.
set -euo pipefail

if [ "$#" -lt 5 ]; then
    sed -n '2,21p' "$0" >&2
    exit 2
fi
parent="$1" change="$2" workload="$3" seconds="$4"
shift 4

metrics="setup_s ops_per_s peak_rss_mb success_share sim_p50_ms sim_p90_ms"
# "<metric>:<better>:<bound>" per metric, from the benchmark's contract.
contract="$(dirname "$0")/../BENCHMARK.json"
bounds=""
for m in $metrics; do
    entry="$(sed -nE "s/.*\"name\": *\"$m\".*\"better\": *\"([a-z]+)\".*\"bound\": *([0-9.]+).*/\1:\2/p" "$contract")"
    if [ -z "$entry" ]; then
        echo "no direction and bound for $m in $contract" >&2
        exit 2
    fi
    bounds="$bounds $m:$entry"
done
runs="$(mktemp "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")"
detail="$(mktemp "${TMPDIR:-/tmp}/bench-pairs-detail.XXXXXX")"
trap 'rm -f "$runs" "$detail"' EXIT

# One run: "<pair> <seed> <side> <six metric values> <correct> <digest>".
run() {
    local pair="$1" seed="$2" side="$3" bin="$4" line value out digest
    : > "$detail"
    line="$("$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        --out "$detail" | tail -n 1)" || true
    out="$pair $seed $side"
    for m in $metrics; do
        value="$(printf '%s' "$line" | sed -nE "s/.*\"$m\":\{\"value\":([^,}]*).*/\1/p")"
        if [ -z "$value" ]; then
            echo "no result line from $side at seed $seed: $line" >&2
            exit 1
        fi
        out="$out $value"
    done
    out="$out $(printf '%s' "$line" | sed -nE 's/.*"correct":([a-z]*).*/\1/p')"
    digest="$(sed -nE 's/.*"digest":"([^"]*)".*/\1/p' "$detail")"
    if [ -z "$digest" ]; then
        echo "no digest from $side at seed $seed" >&2
        exit 1
    fi
    echo "$out $digest" | tee -a "$runs"
}

echo "# pair seed side $metrics correct digest"
pair=0
for seed in "$@"; do
    pair=$((pair + 1))
    if [ $((pair % 2)) -eq 1 ]; then
        run "$pair" "$seed" parent "$parent"
        run "$pair" "$seed" change "$change"
    else
        run "$pair" "$seed" change "$change"
        run "$pair" "$seed" parent "$parent"
    fi
done

echo "# $workload, $pair pairs of ${seconds}s: medians, the parent's quartiles, pairs the change won (ties count for neither), verdict"
awk -v names="$metrics" -v bounds="$bounds" '
function quantile(sorted, n, p,    at, lo) {
    at = (n - 1) * p; lo = int(at)
    return lo + 1 >= n ? sorted[n] : sorted[lo + 1] + (at - lo) * (sorted[lo + 2] - sorted[lo + 1])
}
function sorted_column(side, m, out,    n, i, j, v) {
    n = 0
    for (i = 1; i <= pairs; i++) out[++n] = value[i, side, m]
    for (i = 2; i <= n; i++) { v = out[i]; for (j = i - 1; j >= 1 && out[j] > v; j--) out[j + 1] = out[j]; out[j + 1] = v }
    return n
}
{
    if ($1 > pairs) pairs = $1
    for (m = 1; m <= 6; m++) { value[$1, $3, m] = $(3 + m) + 0; text[$1, $3, m] = $(3 + m) }
    if ($10 != "true") incorrect++
    digest[$1, $3] = $11
}
END {
    split(names, name, " ")
    k = split(bounds, entry, " ")
    for (i = 1; i <= k; i++) { split(entry[i], f, ":"); higher[f[1]] = (f[2] == "higher"); bound[f[1]] = f[3] + 0 }
    printf "%-14s %14s %14s %8s %14s %14s %6s  %s\n", "metric", "parent", "change", "ratio", "parent_q1", "parent_q3", "wins", "verdict"
    for (m = 1; m <= 6; m++) {
        n = sorted_column("parent", m, p); sorted_column("change", m, c)
        sign = higher[name[m]] ? 1 : -1
        wins = 0
        for (i = 1; i <= pairs; i++) if (sign * (value[i, "change", m] - value[i, "parent", m]) > 0) wins++
        pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
        q1 = quantile(p, n, 0.25); q3 = quantile(p, n, 0.75)
        # The gain in the direction BENCHMARK.json calls better; negative is a loss.
        gain = sign * (cm - pm)
        verdict = "ok"
        if (10 * wins >= 9 * pairs && gain > q3 - q1) {
            verdict = "better"
        } else if (-gain > bound[name[m]] * (pm < 0 ? -pm : pm)) {
            verdict = "worse"
        }
        printf "%-14s %14.6f %14.6f %8s %14.6f %14.6f %3d/%d  %s\n", name[m], pm, cm, \
            (pm != 0 ? sprintf("%.3f", cm / pm) : "-"), q1, q3, wins, pairs, verdict
    }
    moved = 0
    for (i = 1; i <= pairs; i++) for (m = 4; m <= 6; m++) if (text[i, "parent", m] != text[i, "change", m]) moved++
    print "sim-clock metrics (success_share, sim_p50_ms, sim_p90_ms) bit-identical in every pair: " (moved ? "NO, " moved " differ" : "yes")
    differ = 0
    for (i = 1; i <= pairs; i++) if (digest[i, "parent"] != digest[i, "change"]) differ++
    print "run digest identical in every pair: " (differ ? "NO, " differ " of " pairs " pairs differ" : "yes")
    print "every run correct: " (incorrect ? "NO, " incorrect " not" : "yes")
}' "$runs"
