#!/usr/bin/env bash
# Tier-1 verification plus the lint gates and the benchmark's sanity pass.
#
#   scripts/ci.sh              build + size, public-surface, work-counter and oracle lines + tests + lint gates
#                              + benchmark smoke + the slow EXPERIMENTS.md reports + chaos soak + pogo-trace smoke
#   scripts/ci.sh --no-perf    skip the benchmark build, smoke pass and unit tests
#   scripts/ci.sh --no-lint    skip fmt/clippy/rustdoc/pogo-lint (e.g. older toolchain)
#   scripts/ci.sh --no-chaos   skip the chaos_soak fault-injection gate
#
# Lint gates (Rust- and script-side static analysis):
#   * cargo fmt --check and cargo clippy -D warnings over the workspace;
#   * rustdoc -D warnings over the workspace (a doc link to a private
#     module or item fails it);
#   * pogo-lint --rust-embedded over the inline scripts in examples/.
# The deploy gate over the bundle in assets/scripts/ (no error-severity
# finding, exactly the pinned P30x warnings) is a tier-1 golden:
# crates/script/tests/golden/bundle.lint.jsonl, checked by dump_cfg.rs.
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
# Size, public functions without a non-test caller and public items never
# named outside their crate, parent -> change (report-only).
scripts/sloc.sh HEAD~1 2>/dev/null || echo "sloc HEAD~1: no parent commit here"
scripts/sloc.sh
scripts/sloc.sh --uncalled HEAD~1 2>/dev/null || true
scripts/sloc.sh --uncalled
scripts/sloc.sh --crate-local HEAD~1 2>/dev/null | head -1 || true
scripts/sloc.sh --crate-local
# The deterministic work counters, beside the size lines (ROADMAP aim 1:
# counts that repeat exactly on any machine): allocator calls per stored
# sample on the two scriptless fleets, per delivered scan and VM steps and
# dispatches per callback on the script fleet, per CSV / JSONL / SenML
# export of a 10,000-row battery and accelerometer store, beside the data
# envelopes sent per stored sample on the lossy uplink fleet; then the live heap bytes,
# per stored sample on the two scriptless fleets (the collector's store)
# and per stored row of a bare store fed their JSON shapes, beside per
# device on the script fleet and the part of that its `raw-scans` log
# holds, and the allocator calls and bytes of one two-key object literal
# and of one script host with the API installed. The test gates them;
# this prints them.
budget_out="$(cargo test --release --test alloc_budget -- --nocapture)"
echo "$budget_out" | grep -E ' allocations .* per (sample|scan|export)[, ]| steps .* per callback|dispatches .* per callback| data envelopes sent .* per stored sample'
echo "$budget_out" | grep -E ' live heap bytes .* per (stored sample|stored row|device)[, ]| log bytes held per device |^Script: '
# What the tree-walk oracle checks the VM on: programs compared, and how
# many ran to completion on both, so a change that shrinks the corpus
# shows here.
cargo test --release -p pogo-script --test vm_diff -- --nocapture | grep -o 'oracle: .*'
cargo test -q

if [[ "$run_lint" == 1 ]]; then
    cargo fmt --check
    cargo clippy --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    ./target/release/pogo-lint --rust-embedded examples/*.rs
fi

if [[ "$run_perf" == 1 ]]; then
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    ./benchmark/target/release/pogo-benchmark --smoke
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
fi

# The slow reports in EXPERIMENTS.md: the 24-day Table 4 and the 8-day
# Ablation B (~25 s in release on a 2-core Xeon) must print exactly their
# blocks there — the ```console fence opened by `$ pogo-experiments
# REPORT`, framed by the report's leading and trailing blank line. The
# cheap reports are tier-1 (crates/experiments/tests/reports.rs).
for report in table4 ablation-freeze; do
    diff <(echo; awk -v open="\$ pogo-experiments $report" \
        '$0 == open { on = 1; next } on && /^```/ { exit } on' EXPERIMENTS.md; echo) \
        <(./target/release/pogo-experiments "$report") \
        || { echo "EXPERIMENTS.md: the $report block differs from pogo-experiments $report" >&2; exit 1; }
done
echo "EXPERIMENTS.md: the table4 and ablation-freeze blocks match"

# Chaos gate: the fixed-seed table4 cohort replay (24 days, 8 phones)
# must inject >=100 faults over >=4 classes — bearer-flap and clock-skew
# among them — with zero delivery-invariant violations, and two
# back-to-back runs must produce byte-identical obs traces. Its digest
# (FNV-1a over trace + store export) is pinned across commits: a change
# that moves the 24-day trace on purpose re-reads it at its parent and
# says so.
TABLE4_24D_DIGEST=0x778691fb7d3dbe4a
if [[ "$run_chaos" == 1 ]]; then
    soak_out="$(./target/release/chaos_soak --workload table4 --check)" || { echo "$soak_out"; exit 1; }
    echo "$soak_out"
    echo "$soak_out" | grep -qx "digest: $TABLE4_24D_DIGEST" \
        || { echo "chaos soak: digest differs from $TABLE4_24D_DIGEST" >&2; exit 1; }
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
