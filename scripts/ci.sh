#!/usr/bin/env bash
# Full CI gate: formatting, release build, complete test suite,
# lint-clean clippy, and the workspace's own static-analysis pass.
# Run from anywhere; operates on the repo root.
#
#   scripts/ci.sh          the gate (~10 min)
#   scripts/ci.sh --full   the gate, plus every figure artifact under
#                          results/ regenerated at the default scale and
#                          held to the committed bytes (~5 min more)
set -euo pipefail
cd "$(dirname "$0")/.."

full=0
for arg in "$@"; do
    case "$arg" in
        --full) full=1 ;;
        *) echo "usage: scripts/ci.sh [--full]" >&2; exit 2 ;;
    esac
done

# Report-only: wall seconds per stage and in total, printed at the end.
# The north star counts "wall time of ci.sh" — a host-clock figure, so it
# gates nothing and no file records it.
stage_report=()
stage_began=$SECONDS
stage_done() {
    stage_report+=("$(printf '%6ds  %s' "$((SECONDS - stage_began))" "$1")")
    stage_began=$SECONDS
}

# The lines / pub-items / opts yardstick CHANGES.md entries quote. Pub
# items and opts may not rise above scripts/size-ceiling.txt (a change
# that adds one raises the ceiling in its own diff); lines are
# report-only, since a perf change may add them on purpose.
scripts/size.sh --check scripts/size-ceiling.txt

cargo fmt --all --check
stage_done "fmt"
cargo build --release
stage_done "release build"
# --no-fail-fast: one failing test binary must not hide whether the
# others pass.
cargo test -q --workspace --no-fail-fast
stage_done "workspace tests"
cargo clippy --workspace --all-targets -- -D warnings
stage_done "clippy"
# Public docs build warning-free: no unresolved link, and no public doc
# linking an item that is not public (the pub-without-outside-user rule
# below keeps making items private).
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps
stage_done "rustdoc"

# seal-lint: workspace determinism/recovery-safety/durability-ordering
# invariants (DESIGN.md §11, §16). Any non-baselined finding is a hard
# failure; stale baseline entries are warned on stderr.
cargo run -q -p seal-lint --release -- --baseline scripts/lint-baseline.txt

# The lint's machine-readable output must be byte-deterministic and
# carry the ordering rules: run the fixture tree twice in JSON mode
# (exit 1 expected — the fixtures are known-bad) and compare.
cargo run -q -p seal-lint --release -- --root crates/lint/tests/fixtures --everything --format json > lint-fixtures-a.json || true
cargo run -q -p seal-lint --release -- --root crates/lint/tests/fixtures --everything --format json > lint-fixtures-b.json || true
cmp lint-fixtures-a.json lint-fixtures-b.json
grep -q '"rule":"checkpoint-before-pointer"' lint-fixtures-a.json
grep -q '"rule":"recycle-after-fixups-durable"' lint-fixtures-a.json
grep -q '"rule":"pub-without-outside-user"' lint-fixtures-a.json
rm -f lint-fixtures-a.json lint-fixtures-b.json
echo "seal-lint json self-check ok"

# The invariants rustc/clippy hold instead of seal-lint (DESIGN.md §11).
# The clippy stage above proves the workspace clean under them; here,
# that they are still configured and still fire. First the attributes
# and the lints-table entry, file by file...
deny_recovery='#![deny(clippy::unwrap_used, clippy::expect_used)]'
deny_cast='#![deny(clippy::cast_possible_truncation)]'
for held in \
    "crates/lsm-core/src/wal.rs|$deny_recovery" \
    "crates/lsm-core/src/version/mod.rs|$deny_recovery" \
    "crates/lsm-core/src/filestore.rs|$deny_recovery" \
    "crates/lsm-core/src/db/scrub.rs|$deny_recovery" \
    "crates/vlog/src/lib.rs|$deny_recovery" \
    "crates/smr-sim/src/stats.rs|$deny_cast" \
    "crates/smr-sim/src/obs.rs|$deny_cast" \
    'Cargo.toml|missing_docs = "warn"'; do
    IFS='|' read -r file line <<< "$held"
    grep -qxF "$line" "$file" || { echo "$file lacks the line: $line"; exit 1; }
done
# ...then a known-bad crate of its own, below the root clippy.toml: clippy
# must reject it with a finding of each lint, and leave the unwrap in its
# test code alone (allow-unwrap-in-tests).
fixture=crates/lint/tests/fixtures/clippy
if cargo clippy -q --manifest-path "$fixture/Cargo.toml" --target-dir target/clippy-fixture \
    --all-targets --keep-going --message-format=json -- -D warnings \
    > clippy-fixture.json 2> /dev/null; then
    echo "clippy accepted the known-bad crate $fixture"
    exit 1
fi
for lint in clippy::disallowed_types clippy::unwrap_used clippy::expect_used \
    clippy::cast_possible_truncation missing_docs; do
    grep -qF "\"code\":{\"code\":\"$lint\"" clippy-fixture.json ||
        { echo "clippy found no $lint in $fixture"; exit 1; }
done
grep -qF '"test":true' clippy-fixture.json ||
    { echo "clippy did not check the test target of $fixture"; exit 1; }
if grep -qF exempt_in_tests clippy-fixture.json; then
    echo "clippy flagged the test code of $fixture"
    exit 1
fi
rm -f clippy-fixture.json
echo "clippy lint self-check ok"
stage_done "seal-lint"

# Runtime half of the ordering contract: the debug-profile crash-point
# suites run with the OrderingAuditor live (debug_assert!s active), so
# a violated happens-before edge fails here even if every recovered
# value happens to read back correctly; chaos_regressions holds the
# pinned retire-before-sync repro schedule the GC path must keep
# passing (the proof that the auditor catches that bug is a sealdb
# unit test, run with the workspace tests above).
# (`cargo test --workspace` above also runs debug, but these suites are
# the designated ordering oracle — keep them green by name.)
cargo test -q --test vlog_crash_points --test crash_points --test recovery_hardening --test chaos_regressions
stage_done "ordering-oracle suites"

# Byte-identity oracle. Every BENCH_pr*.json below is a pure function of
# the code and its seeds — simulated clock only, no host time — and the
# committed copy is what that function returned when it last changed on
# purpose. A regenerated artifact that differs from the committed one
# therefore means simulated behaviour moved: a host-only change (buffer
# ownership, checksum kernels, allocation reuse) must pass this gate
# untouched, and a change that means to move an artifact commits the new
# bytes with it.
#
# On a mismatch a JSON artifact is compared field by field (`seal-bench
# --artifact-diff`: one `path: old → new` line per changed leaf) with the
# copy `git diff` compared it to — the index, which is HEAD in a clean
# checkout; the one-line JSON's own `git diff` would be unreadable. The
# CSV and text artifacts are line-oriented, so `git diff` shows them.
same_as_committed() {
    git diff --quiet -- "$1" && return
    echo "$1: regenerated artifact differs from the committed one"
    if [[ $1 == *.json ]]; then
        committed=$(mktemp)
        git show ":$1" > "$committed"
        cargo run -q --release -p bench -- --artifact-diff "$committed" "$1" || true
        rm -f "$committed"
    else
        git diff -- "$1"
    fi
    exit 1
}

# One row per artifact: file | seal-bench flag | cargo profile | scale.
# Each is regenerated, held to the committed bytes, then validated by
# its checker in crates/bench/src/*_run.rs — schema, no NaN/Inf, and the
# artifact's headline invariants (SEALDB saturates highest and no store
# stops a write at any offered load; scrub-on
# cells lose zero keys; quorum cells lose zero acked writes; saturation
# rises with shard count and the migration loses nothing; the value log
# halves update-WA and lifts the knee; zero chaos-oracle violations
# over >=4 device and >=3 cluster fault classes). The checkers are the
# only place those gates are written down.
#
# pr3 and pr7 run at the canonical serving scale; pr8 in the large-value
# regime where key-value separation pays. pr10 is deliberately a
# DEBUG-profile run: debug builds arm the ordering auditors (DESIGN.md
# par. 16), so every chaos schedule doubles as a happens-before oracle.
chaos_schedules="${CHAOS_SCHEDULES:-25}"
artifacts=(
    "BENCH_pr2.json|metrics|release|--tiny"
    "BENCH_pr3.json|serve|release|--serving"
    "BENCH_pr5.json|scrub|release|--tiny"
    "BENCH_pr6.json|replicate|release|--tiny"
    "BENCH_pr7.json|shard|release|--serving"
    "BENCH_pr8.json|vlog|release|--tiny --value 4096 --load-mb 4 --ycsb-ops 4000"
    "BENCH_pr10.json|chaos|dev|--tiny --chaos-schedules $chaos_schedules"
)
for row in "${artifacts[@]}"; do
    IFS='|' read -r file flag profile scale <<< "$row"
    bench=(cargo run -q --profile "$profile" -p bench --)
    # shellcheck disable=SC2086  # $scale is a flag list
    "${bench[@]}" "--$flag-out" "$file" $scale
    if [[ $flag == chaos && $chaos_schedules != 25 ]]; then
        # Not the committed 25-schedule run: hold it to a second run.
        # shellcheck disable=SC2086
        "${bench[@]}" "--$flag-out" "$file.rerun" $scale
        cmp "$file" "$file.rerun"
        rm "$file.rerun"
    else
        same_as_committed "$file"
    fi
    "${bench[@]}" "--$flag-check" "$file"
    stage_done "$file"
done

# Figure artifacts (--full only; ROADMAP item 4c's nightly mode). The
# results/*.csv files and the report text are simulated-clock output like
# the BENCH artifacts above, so they answer to the same yardstick. The
# committed run_summary.log is the report as `seal-bench all` prints it,
# minus the one kind of line that reads the host clock.
if (( full )); then
    cargo run -q --release -p bench -- all --out results |
        grep -v '^  \[wall-clock ' > results/run_summary.log
    for artifact in results/*.csv results/run_summary.log; do
        same_as_committed "$artifact"
    done
    stray=$(git ls-files --others --exclude-standard -- results)
    if [[ -n "$stray" ]]; then
        echo "results/: regenerated files that are not committed: $stray"
        exit 1
    fi
    echo "results/ ok: every figure artifact regenerated byte-identically"
    stage_done "results/ (--full)"
fi

# Fidelity order gate: the paper's order facts (SEALDB beats LevelDB on
# every Fig. 8 phase; on random load SEALDB > SMRDB > LevelDB; SEALDB's
# compactions cost the least time in total and SMRDB's are the largest,
# Fig. 10; Fig. 12's write amplification rows; sets alone do not improve
# sequential write, Fig. 14) hold in the figure CSVs —
# the committed ones, which --full has just regenerated byte-identically.
cargo run -q --release -p bench -- --fidelity-check results
stage_done "fidelity order gate"

# seal-perf (benchmark/) is a workspace of its own that binds the crates'
# public surface by name (benchmark/src/surface.rs): build and test it
# against this tree, then let it check itself and run every workload once
# at smoke scale, so the crates cannot drift from what the benchmark
# calls. Results land in benchmark/results/ci/ (ignored by git).
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke ci
stage_done "seal-perf tests + smoke"

echo "ci.sh wall seconds per stage:"
printf '%s\n' "${stage_report[@]}"
printf '%6ds  total\n' "$SECONDS"
