#!/usr/bin/env bash
# Tier-1 verification, run exactly as the evaluation driver runs it but
# with --offline forced, so a network regression (any reintroduced
# external dependency) fails fast and loudly instead of hanging on
# registry retries. `.cargo/config.toml` additionally pins
# `net.offline = true` for plain cargo invocations. It rewrites the golden
# outputs under `tests/figures/` in place and fails if they moved.
#
# See DESIGN.md "Hermetic build policy" for why the workspace has zero
# external crates and how to vendor a substitute if one is ever needed.
set -euo pipefail
cd "$(dirname "$0")/.."

# Guard: no external registry dependencies may appear in any manifest,
# the end-to-end benchmark's (built offline below) included.
if grep -RInE '^\s*(rand|proptest|criterion|crossbeam|parking_lot|bytes|serde|tokio|rayon)\b.*=' \
    Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml; then
    echo "ERROR: external registry dependency found in a manifest." >&2
    echo "This workspace is hermetic (DESIGN.md); vendor a substitute instead." >&2
    exit 1
fi

# Zero-tolerance static gates, one engine per rule (DESIGN.md §5c):
#  * rustc: `-D warnings` turns every warning into a build failure, and
#    `unsafe_code = "deny"` (root `[workspace.lints]`, and `[lints.rust]`
#    of `bench`, `lint` and the root package) refuses `unsafe`;
#  * clippy: its default lints on every target (libraries, binaries,
#    tests, benches, examples) plus the panic family (`unwrap_used`,
#    `expect_used`, `panic`, `unreachable`, `todo`, `unimplemented`),
#    denied in the six sim-facing crates through `[workspace.lints]`;
#    a stale `#[expect(…)]` fails here too;
#  * `scalewall-lint --workspace [--root DIR]`: D1–D3, D6 and D7's
#    literal index over `crates/*/src`. It exits 0 when clean, 1 on any
#    violation (which fails the build) and 2 on a usage or IO error.
export RUSTFLAGS="-D warnings"

# Formatting gate, seven crates so far: the kernel, coordination,
# discovery, the shard manager, the engine, the deployment harness and
# the figures and micro-benchmarks stay rustfmt-clean (the rest of the
# workspace is not yet, ROADMAP.md).
for crate in scalewall-sim scalewall-zk scalewall-discovery scalewall-shard-manager cubrick scalewall-cluster scalewall-bench; do
    cargo fmt -p "$crate" --check
done

cargo build --release --offline

cargo clippy --workspace --all-targets --offline -- -D warnings

# Every per-site exception to a compiler-owned rule, with its reason (a
# report, not a gate).
echo "lint expectations:"
{ grep -rn --include='*.rs' -E '#!?\[expect\(' crates/*/src tests || true; } | sort |
    sed -E 's/^([^:]+:[0-9]+):[[:space:]]*#!?\[expect\(([^,]+), reason = "(.*)"\)\]$/  \1: \2 — \3/'

scratch="$(mktemp -d /tmp/scalewall-verify.XXXXXX)"
trap 'rm -rf "$scratch"' EXIT
cargo run --release --offline -p scalewall-lint -- --workspace

# The root package is a workspace member, so this is also every suite
# under tests/ (fault scenarios, zk replication, replay order, the pins).
cargo test -q --offline --workspace

# Every figure binary at both profiles, `all_figures --fast` and every
# example, byte for byte against its golden file under `tests/figures/`:
# a modified, deleted or untracked golden file fails (39 outputs).
cargo build --release --offline -p scalewall-bench --bins
cargo build --release --offline --examples
scripts/figures_match.sh target/release

# End-to-end benchmark (ISSUE 11): `benchmark/` is its own workspace, so
# nothing above compiles it, and it is frozen for feature PRs — a
# signature change under `crates/` that breaks it would otherwise surface
# only at the gate. The smoke run (sizes ÷ 100) checks every workload's
# answers and digests and exits non-zero on either.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --smoke >/dev/null

# Microbench gate (ISSUEs 7, 8, 10): smoke-run every bench target,
# emit its JSON report, and validate the fresh emission and, where one is
# checked in, the `BENCH_<name>.json` trajectory with the workspace
# codec. Malformed output fails the build.
# (`cargo test --bench` runs the target *without* cargo's `--bench` flag,
# i.e. in single-shot smoke mode; `--validate` exits before any timing.)
for name in engine infra zk_replication qos_sla; do
    cargo test -q --offline -p scalewall-bench --bench "$name" -- --json "$scratch/$name.json" >/dev/null
    cargo test -q --offline -p scalewall-bench --bench "$name" -- --validate "$scratch/$name.json"
    if [ -f "BENCH_$name.json" ]; then
        cargo test -q --offline -p scalewall-bench --bench "$name" -- --validate "$PWD/BENCH_$name.json"
    fi
done

# Non-test lines per crate: the sizes ROADMAP.md quotes.
scripts/loc.sh

# Names only tests reach (a report, not a gate).
scripts/unreferenced.sh

# Who sets each config field outside tests (a report, not a gate).
scripts/knobs.sh

echo "tier-1 verify: OK (offline)"
