#!/usr/bin/env bash
# Hermetic CI gate for the FAROS reproduction.
#
# The workspace is std-only: every build below runs with --offline, so the
# gate passes from a clean checkout with an empty cargo registry and no
# network. If any step here needs the network, that is itself the bug.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> warnings-as-errors build (RUSTFLAGS=-D warnings)"
RUSTFLAGS="-D warnings" cargo build --offline --workspace --all-targets

echo "==> clippy (workspace, -D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> rustdoc (workspace, -D warnings)"
# Broken, private or ambiguous intra-doc links fail the gate, so docs
# cannot keep pointing at items that were renamed or deleted.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> style check"
# In-tree fmt-equivalent: no tabs, no trailing whitespace, no CRLF in any
# Rust source.
if grep -rn -P '\t|[ ]+$|\r' --include='*.rs' src crates examples tests; then
    echo "error: tabs / trailing whitespace / CRLF found in Rust sources" >&2
    exit 1
fi

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
# Includes the CFI differential gates (tests/cfi_soundness.rs): zero
# violations across the whole benign corpus, >=1 per ROP/JOP reuse
# attack with taint and coverage silent, taint fusion on the
# net-assembled chain.
cargo test -q --offline --workspace

echo "==> benchmark package tests (jobbench: every workload timed and traced, BENCHMARK.json parity)"
# jobbench is a package of its own outside the workspace, so the workspace
# test run above does not reach it.
cargo test --release --offline --locked --manifest-path jobbench/Cargo.toml

echo "==> golden fixture staleness check (regen must be a no-op)"
# Re-emitting every golden fixture must leave the working tree untouched;
# a diff here means a checked-in fixture is stale relative to the code and
# the golden tests above were comparing against yesterday's format.
FAROS_REGEN_GOLDEN=1 cargo test -q --offline \
    --test golden_roundtrip --test analyze_cli --test service_protocol >/dev/null
git diff --exit-code -- tests/fixtures \
    || { echo "error: stale golden fixtures; review and commit the regenerated files" >&2; exit 1; }

# The analyst-facing examples double as smoke tests: each must build and
# exit 0 end-to-end (record, replay, detect, report — and, for
# analyze_image, the static lint truth table).
EXAMPLES=(
    quickstart
    process_hollowing
    rat_injection
    jit_false_positive
    cuckoo_comparison
    analyst_tour
    analyze_image
    trace_replay
)
for ex in "${EXAMPLES[@]}"; do
    echo "==> cargo run --release --offline --example $ex"
    cargo run --release --offline --example "$ex" >/dev/null
done

echo "==> validate emitted Chrome trace + metrics JSON"
# trace_replay writes its exports under target/; the in-tree JSON parser
# (via faros-cli) is the validator, keeping the gate hermetic.
cargo run --release --offline -p faros-bench --bin faros-cli -- json-check \
    target/trace_replay.trace.json target/trace_replay.metrics.json

echo "==> bench suite (FAROS_BENCH_WRITE -> BENCH_replay.json)"
FAROS_BENCH_WRITE="$PWD" cargo bench --offline -p faros-bench --bench replay >/dev/null
cargo run --release --offline -p faros-bench --bin faros-cli -- json-check BENCH_replay.json
test -s BENCH_replay.json

echo "==> bench regression gate (replay_faros <= 1.5x replay_base)"
cargo run --release --offline -p faros-bench --bin faros-cli -- bench-gate BENCH_replay.json

echo "==> detonation service bench (FAROS_BENCH_WRITE -> BENCH_service.json)"
FAROS_BENCH_WRITE="$PWD" cargo bench --offline -p faros-bench --bench service >/dev/null
cargo run --release --offline -p faros-bench --bin faros-cli -- json-check BENCH_service.json
test -s BENCH_service.json

echo "==> service scaling gate (core-count-aware 4-worker speedup floor)"
cargo run --release --offline -p faros-bench --bin faros-cli -- service-gate BENCH_service.json

echo "==> bounded service soak (200 jobs, 4 workers, exact accounting)"
# The pool must drain to zero, lose no workers, drop no trace events, and
# the merged metrics must equal the fold of the per-job snapshots.
cargo run --release --offline -p faros-bench --bin faros-cli -- soak --jobs 200 --workers 4

echo "==> replay profiler smoke (two runs, byte-identical JSON)"
# The profiler's virtual clock (retired instructions) must make the
# profile a pure function of the recording: two full record+profile runs
# of the same scenario produce byte-identical reports.
cargo run --release --offline -p faros-bench --bin faros-cli -- \
    profile process_hollowing --json > target/profile_run1.json
cargo run --release --offline -p faros-bench --bin faros-cli -- \
    profile process_hollowing --json > target/profile_run2.json
cmp target/profile_run1.json target/profile_run2.json \
    || { echo "error: faros-cli profile output is not deterministic" >&2; exit 1; }
cargo run --release --offline -p faros-bench --bin faros-cli -- json-check \
    target/profile_run1.json
grep -q '"\[anon\]"' target/profile_run1.json \
    || { echo "error: hollowing profile lost its injected-code [anon] rows" >&2; exit 1; }

echo "==> trace view smoke (faros-cli trace reads the flight-recorder ring)"
# The event timeline has one source, the TraceRecorder ring. The injection
# must show its story: process creation, the network-delivered payload and
# the cross-process copy. (process_hollowing takes no network input, so
# reflective_dll_inject is the sample that exercises all three.)
cargo run --release --offline -p faros-bench --bin faros-cli -- \
    trace reflective_dll_inject > target/trace_view.txt
for event in process_created net_rx guest_copy; do
    grep -q " $event " target/trace_view.txt \
        || { echo "error: faros-cli trace printed no $event line" >&2; exit 1; }
done

echo "==> service socket smoke (serve / submit / stop over target/faros.sock)"
SOCK="target/faros.sock"
# A previous aborted run can leave a stale socket file behind; the
# readiness loop below would accept it before the new server binds.
rm -f "$SOCK"
cargo run --release --offline -p faros-bench --bin faros-cli -- \
    serve --socket "$SOCK" --workers 2 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 50); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "error: service socket never appeared" >&2; exit 1; }
cargo run --release --offline -p faros-bench --bin faros-cli -- \
    submit process_hollowing --socket "$SOCK" | grep "FLAGGED" >/dev/null
cargo run --release --offline -p faros-bench --bin faros-cli -- \
    submit teamviewer_v209 --socket "$SOCK" | grep "clean" >/dev/null
# Live telemetry plane: `top` pulls stats + health + metrics + trace tail
# over the same socket; two clean jobs must leave the service all green.
cargo run --release --offline -p faros-bench --bin faros-cli -- \
    top --socket "$SOCK" | grep "health: ok" >/dev/null
cargo run --release --offline -p faros-bench --bin faros-cli -- stop --socket "$SOCK"
wait "$SERVE_PID"
trap - EXIT
[ ! -S "$SOCK" ] || { echo "error: socket file not removed on shutdown" >&2; exit 1; }

echo "==> static analyze golden check (CLI output == checked-in fixture)"
# Drive the actual CLI binary over the archived demo image; the library
# path is covered by tests/analyze_cli.rs, this covers the binary glue.
cli_report="$(cargo run --release --offline -p faros-bench --bin faros-cli -- \
    analyze tests/fixtures/analyze_demo.fdl --json)"
if [ "$cli_report" != "$(cat tests/fixtures/analyze_demo_report.json)" ]; then
    echo "error: faros-cli analyze output drifted from tests/fixtures/analyze_demo_report.json" >&2
    exit 1
fi

echo "==> static/dynamic cross-check + CFI + capability truth-table gate over the corpus"
# Injectors keep >=1 statically-impossible alert and >=1 exercised
# injection recipe, family variants zero on both, every ROP/JOP reuse
# sample trips >=1 cfi-violation (taint/coverage/capability silent) with
# the benign dense-indirect foils at zero, the capability-laundering pair
# raises the impossible-capability alert while the debugger foil stays
# quiet, and the corpus-wide advisory counts (unresolved indirects,
# unresolved syscall numbers) stay on their pins.
cargo run --release --offline -p faros-bench --bin faros-cli -- analyze --corpus

echo "==> interpreter-vs-cache differential over the full corpus"
# The translation cache is mechanism, not policy: for every sample in the
# registry, the cached and interpreted replays must retire the same
# instruction count, assemble byte-identical reports across every
# section (detections, coverage, CFI, metrics, profile) and deliver the
# same number of callbacks to every plugin.
cargo run --release --offline -p faros-bench --bin faros-cli -- differential

echo "==> hermeticity check: no external dependencies in any manifest"
if grep -rn "crates-io\|serde\|proptest\|criterion\|parking_lot" crates/*/Cargo.toml Cargo.toml; then
    echo "error: external dependency reference found in a manifest" >&2
    exit 1
fi

echo "CI gate passed."
