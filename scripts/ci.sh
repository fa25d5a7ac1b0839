#!/usr/bin/env bash
# Tier-1 verification plus the lint gates and the benchmark's sanity pass.
#
#   scripts/ci.sh              build + size, work-counter and oracle lines + tests + lint gates + benchmark smoke
#   scripts/ci.sh --no-perf    skip the benchmark build, smoke pass and unit tests
#   scripts/ci.sh --no-lint    skip fmt/clippy/pogo-lint (e.g. older toolchain)
#   scripts/ci.sh --no-chaos   skip the chaos_soak fault-injection gate
#
# Lint gates (Rust- and script-side static analysis):
#   * cargo fmt --check and cargo clippy -D warnings over the workspace;
#   * pogo-lint over every deployable script in assets/scripts/, as one
#     bundle: the deploy gate `Deployment::send` runs (lint with the
#     cross-script channel rule, compile, bytecode verifier, cost bounds).
#     `geolocate` is allowed because collect.js expects the collector to
#     register it as an extension native. No error-severity finding, and
#     the P302/P303/P304 warnings are exactly the pinned set;
#   * pogo-lint --rust-embedded over the inline scripts in examples/.
#
# The perf step builds `benchmark/` (a package of its own, outside this
# workspace) against the crates as they are now, runs `pogo-benchmark
# --smoke` — every workload once at a small size, output checks on, same
# seed twice must give the same digest — and the benchmark's own unit
# tests. It proves the one measurement path still builds and runs; it
# gates no timing. A performance claim is `pogo-benchmark suite` on the
# parent and on the change, then `compare` (README, "Benchmark").
set -euo pipefail
cd "$(dirname "$0")/.."

run_perf=1
run_lint=1
run_chaos=1
for arg in "$@"; do
    case "$arg" in
        --no-perf) run_perf=0 ;;
        --no-lint) run_lint=0 ;;
        --no-chaos) run_chaos=0 ;;
        *)
            echo "ci.sh: unknown flag $arg" >&2
            exit 2
            ;;
    esac
done

cargo build --release --workspace
# Size and public functions without a non-test caller, parent -> change
# (ROADMAP item 5; report-only).
scripts/sloc.sh HEAD~1 2>/dev/null || echo "sloc HEAD~1: no parent commit here"
scripts/sloc.sh
scripts/sloc.sh --uncalled HEAD~1 2>/dev/null || true
scripts/sloc.sh --uncalled
# The deterministic work counters, beside the size lines (ROADMAP aim 1:
# counts that repeat exactly on any machine): allocator calls per stored
# sample on the two scriptless fleets, per delivered scan and VM steps and
# dispatches per callback on the script fleet; then the live heap bytes,
# per stored sample on the two scriptless fleets (the collector's store)
# beside per device on the script fleet. The test gates them; this prints
# them.
budget_out="$(cargo test --release --test alloc_budget -- --nocapture)"
echo "$budget_out" | grep -E ' allocations .* per (sample|scan)[, ]| steps .* per callback|dispatches .* per callback'
echo "$budget_out" | grep -E ' live heap bytes .* per (stored sample|device)[, ]'
# What the tree-walk oracle checks the VM on: programs compared, and how
# many ran to completion on both, so a change that shrinks the corpus
# shows here.
cargo test --release -p pogo-script --test vm_diff -- --nocapture | grep -o 'oracle: .*'
cargo test -q

if [[ "$run_lint" == 1 ]]; then
    cargo fmt --check
    cargo clippy --all-targets -- -D warnings
    ./target/release/pogo-lint --rust-embedded examples/*.rs
    # The deploy gate over the deployable bundle: any error-severity
    # finding (a lint error, a compiled chunk that fails verification, a
    # guaranteed-over-budget P301) fails CI. Unbounded/may-exceed cost
    # (P302/P303) and publish fan-out (P304) are warnings at the gate,
    # and here they are pinned: the paper's scripts have exactly the
    # findings listed below, so a lowering or analyzer change that
    # silently loses a bound it used to prove (a counted loop turning
    # unbounded) or claims one it should not fails CI instead of adding a
    # warning nobody reads. A deliberate change to a script or to the
    # analysis updates the list in the same commit.
    gate_json="$(./target/release/pogo-lint --allow-native geolocate \
        --json assets/scripts/*.js)"
    if echo "$gate_json" | grep '"severity":"error"' ; then
        echo "ci.sh: the deploy gate found error-severity findings" >&2
        exit 1
    fi
    cost_expected="\
assets/scripts/clustering.js P302 127
assets/scripts/clustering.js P304 127
assets/scripts/roguefinder-collect.js P302 4
assets/scripts/roguefinder.js P302 1
assets/scripts/roguefinder.js P302 31
assets/scripts/roguefinder.js P304 1
assets/scripts/roguefinder.js P304 31
assets/scripts/scan.js P302 30
assets/scripts/scan.js P304 30"
    cost_found="$(echo "$gate_json" \
        | sed -nE 's/.*"file":"([^"]+)","code":"(P30[234])".*"line":([0-9]+).*/\1 \2 \3/p' \
        | LC_ALL=C sort)"
    if [[ "$cost_found" != "$cost_expected" ]]; then
        echo "ci.sh: the bundle's P302/P303/P304 findings changed (< expected, > found):" >&2
        diff <(echo "$cost_expected") <(echo "$cost_found") >&2 || true
        exit 1
    fi
fi

if [[ "$run_perf" == 1 ]]; then
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    ./benchmark/target/release/pogo-benchmark --smoke
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
fi

# Chaos gate: the fixed-seed table4 cohort replay (24 days, 8 phones)
# must inject >=100 faults over >=4 classes — bearer-flap and clock-skew
# among them — with zero delivery-invariant violations, and two
# back-to-back runs must produce byte-identical obs traces.
if [[ "$run_chaos" == 1 ]]; then
    ./target/release/chaos_soak --workload table4 --check
fi

# pogo-trace smoke: the quickstart workload with tracing on must emit
# non-empty, well-formed JSONL (every line a {"t":...,"cat":...} object).
trace_tmp="$(mktemp -t pogo-trace-smoke.XXXXXX)"
trap 'rm -f "$trace_tmp"' EXIT
./target/release/pogo-trace --workload quickstart -o "$trace_tmp"
test -s "$trace_tmp" || { echo "pogo-trace smoke: empty trace" >&2; exit 1; }
grep -vq '^{"t":[0-9]*,.*"cat":".*","ev":".*"' "$trace_tmp" \
    && { echo "pogo-trace smoke: malformed JSONL line" >&2; exit 1; }
# Round-trip: the CLI must re-read its own dump.
./target/release/pogo-trace "$trace_tmp" --top >/dev/null
echo "pogo-trace smoke: ok ($(wc -l < "$trace_tmp") events)"
