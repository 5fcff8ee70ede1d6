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

cargo fmt --all --check
cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

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
rm -f lint-fixtures-a.json lint-fixtures-b.json
echo "seal-lint json self-check ok"

# Runtime half of the ordering contract: the debug-profile crash-point
# suites run with the OrderingAuditor live (debug_assert!s active), so
# a violated happens-before edge fails here even if every recovered
# value happens to read back correctly. (`cargo test --workspace` above
# also runs debug, but these suites are the designated ordering oracle —
# keep them green by name.)
cargo test -q --test vlog_crash_points --test crash_points --test recovery_hardening

# Byte-identity oracle. Every BENCH_pr*.json below is a pure function of
# the code and its seeds — simulated clock only, no host time — and the
# committed copy is what that function returned when it last changed on
# purpose. A regenerated artifact that differs from the committed one
# therefore means simulated behaviour moved: a host-only change (buffer
# ownership, checksum kernels, allocation reuse) must pass this gate
# untouched, and a change that means to move an artifact commits the new
# bytes with it.
same_as_committed() {
    git diff --exit-code -- "$1" || {
        echo "$1: regenerated artifact differs from the committed one"
        exit 1
    }
}

# Observability artifact: produce the metrics trajectory at smoke scale
# and schema-check it (fails on missing keys or any NaN/Inf leak).
cargo run -q --release -p bench -- --metrics-out BENCH_pr2.json --tiny
same_as_committed BENCH_pr2.json
cargo run -q --release -p bench -- --metrics-check BENCH_pr2.json

# Serving artifact: the canonical latency-under-load sweep, then the
# schema check (required keys, no NaN/Inf) and the headline property —
# SEALDB sustains the highest saturation throughput of the three stores.
cargo run -q --release -p bench -- --serve-out BENCH_pr3.json --serving
same_as_committed BENCH_pr3.json
cargo run -q --release -p bench -- --serve-check BENCH_pr3.json
sats=$(grep -o '"saturation_ops_per_sec":[0-9.]*' BENCH_pr3.json | cut -d: -f2)
echo "$sats" | awk 'NR==1{l=$1} NR==2{m=$1} NR==3{s=$1}
    END { if (NR != 3 || s <= l || s <= m) {
              printf "SEALDB saturation %s not highest (LevelDB %s, SMRDB %s)\n", s, l, m
              exit 1
          }
          printf "serve saturation ok: SEALDB %s > LevelDB %s, SMRDB %s\n", s, l, m }'

# Scrub artifact: plant latent sector errors, sweep scrub budget x fault
# count, then check the durability invariant — scrub-on cells lose ZERO
# keys while the scrub-off baselines lose a deterministic set (the
# checker enforces this; the awk pass restates it as a visible gate).
cargo run -q --release -p bench -- --scrub-out BENCH_pr5.json --tiny
same_as_committed BENCH_pr5.json
cargo run -q --release -p bench -- --scrub-check BENCH_pr5.json
grep -o '"scrub":[a-z]*,"scrub_budget":[0-9]*,"fault_regions":[0-9]*,"lost_keys":[0-9]*' BENCH_pr5.json |
awk -F'[:,]' '$2=="true" && $8 != 0 { printf "scrub-on cell lost %s keys\n", $8; bad=1 }
    $2=="true" { on++ } $2=="false" { off_lost+=$8 }
    END { if (bad) exit 1
          if (on == 0 || off_lost == 0) { print "scrub sweep did not exercise the invariant"; exit 1 }
          printf "scrub durability ok: %d scrub-on cells lost 0 keys, baselines lost %d\n", on, off_lost }'

# Replication artifact: ship-mode x ack-policy x link-latency x kill-point
# failover sweep, then the schema check (cell grid, RTO monotone in link
# latency) and the headline RPO gate — every quorum-ack cell lost ZERO
# acked writes, while the primary-only baselines lose their unshipped
# tail (the checker enforces this; the awk pass restates it as a gate).
cargo run -q --release -p bench -- --replicate-out BENCH_pr6.json --tiny
same_as_committed BENCH_pr6.json
cargo run -q --release -p bench -- --replicate-check BENCH_pr6.json
grep -o '"ack":"[a-z]*","link_latency_ns":[0-9]*,"kill_after":[0-9]*,"writes":[0-9]*,"acked_writes":[0-9]*,"acked_lost":[0-9]*' BENCH_pr6.json |
awk -F'[:,]' '{ gsub(/"/, "") }
    $2=="quorum" && $12 != 0 { printf "quorum cell lost %s acked writes\n", $12; bad=1 }
    $2=="quorum" { q++ } $2=="primary" { p_lost+=$12 }
    END { if (bad) exit 1
          if (q == 0 || p_lost == 0) { print "replication sweep did not exercise the invariant"; exit 1 }
          printf "replication rpo ok: %d quorum cells lost 0 acked writes, primary-only baselines lost %d\n", q, p_lost }'

# Shard artifact: the multi-shard scale-out sweep at the canonical
# serving scale (1/2/4/8-shard saturation cells plus a mid-run split
# migration), then the schema check and two visible gates — aggregate
# saturation rises strictly with shard count, and the migration loses
# ZERO acked keys while actually moving data.
cargo run -q --release -p bench -- --shard-out BENCH_pr7.json --serving
same_as_committed BENCH_pr7.json
cargo run -q --release -p bench -- --shard-check BENCH_pr7.json
grep -o '"saturation_ops_per_sec":[0-9.]*' BENCH_pr7.json | cut -d: -f2 |
awk 'NR>1 && $1 <= prev { printf "shard saturation not strictly increasing: %s after %s\n", $1, prev; exit 1 }
    { prev=$1; n++ }
    END { if (n != 4) { printf "expected 4 shard cells, saw %d\n", n; exit 1 }
          printf "shard scale-out ok: %d cells, saturation strictly increasing\n", n }'
grep -o '"moved_keys":[0-9]*,"moved_bytes":[0-9]*,"batches":[0-9]*,"duration_ns":[0-9]*,"checked_keys":[0-9]*,"lost_keys":[0-9]*' BENCH_pr7.json |
awk -F'[:,]' '{ moved=$2; lost=$12 }
    END { if (NR != 1) { print "expected exactly one migration cell"; exit 1 }
          if (lost != 0) { printf "migration lost %s acked keys\n", lost; exit 1 }
          if (moved == 0) { print "migration moved no keys"; exit 1 }
          printf "shard migration ok: moved %s keys, lost 0\n", moved }'

# Key-value-separation artifact: update-heavy YCSB A/F against inline vs
# value-log SEALDB builds in the large-value regime, then the schema
# check and the headline gates — separation cuts update-WA strictly at
# every cell (>=2x on workload A), sustains a higher saturation knee,
# and no cell loses a single key.
cargo run -q --release -p bench -- --vlog-out BENCH_pr8.json --tiny --value 4096 --load-mb 4 --ycsb-ops 4000
same_as_committed BENCH_pr8.json
cargo run -q --release -p bench -- --vlog-check BENCH_pr8.json
grep -o '"workload":"[AF]","vlog":[a-z]*,"update_wa":[0-9.]*,[^}]*"saturation_ops_per_sec":[0-9.]*,[^}]*"lost_keys":[0-9]*' BENCH_pr8.json |
awk -F'[:,]' '{ gsub(/"/, "") }
    { w=$2; v=$4; wa=$6; lost=$NF
      for (i = 1; i <= NF; i++) if ($i == "saturation_ops_per_sec") sat=$(i+1)
      if (v == "true") { vwa[w]=wa; vsat[w]=sat } else { iwa[w]=wa; isat[w]=sat }
      if (lost != 0) { printf "vlog cell %s/%s lost %s keys\n", w, v, lost; bad=1 } }
    END { if (bad) exit 1
          if (!("A" in vwa) || !("F" in vwa)) { print "vlog sweep missing cells"; exit 1 }
          for (w in vwa) {
              if (vwa[w] >= iwa[w]) { printf "workload %s: vlog WA %s not below inline %s\n", w, vwa[w], iwa[w]; exit 1 }
              if (vsat[w] <= isat[w]) { printf "workload %s: vlog knee %s not above inline %s\n", w, vsat[w], isat[w]; exit 1 }
          }
          if (vwa["A"] * 2 > iwa["A"]) { printf "workload A: vlog WA %s not 2x below inline %s\n", vwa["A"], iwa["A"]; exit 1 }
          printf "vlog separation ok: A WA %s vs %s, F WA %s vs %s, knees higher\n", vwa["A"], iwa["A"], vwa["F"], iwa["F"] }'

# Chaos artifact: CHAOS_SCHEDULES (default 25) seeded random fault
# schedules over the composed stack — shard routing x replication x
# key-value separation x SMR device faults — each followed by the
# end-to-end durability oracle. Deliberately a DEBUG-profile run: debug
# builds arm the ordering auditors (DESIGN.md par. 16), so every
# schedule doubles as a happens-before oracle. The artifact is
# regenerated twice and must be byte-identical (same seeds, same
# schedules, same report), then the schema check and a visible gate:
# zero oracle violations and coverage spanning >=4 device and >=3
# cluster fault classes.
cargo run -q -p bench -- --chaos-out BENCH_pr10.json --tiny --chaos-schedules "${CHAOS_SCHEDULES:-25}"
cargo run -q -p bench -- --chaos-out BENCH_pr10.json.rerun --tiny --chaos-schedules "${CHAOS_SCHEDULES:-25}"
cmp BENCH_pr10.json BENCH_pr10.json.rerun
rm BENCH_pr10.json.rerun
# The committed artifact is the default 25-schedule run.
if [[ "${CHAOS_SCHEDULES:-25}" == 25 ]]; then
    same_as_committed BENCH_pr10.json
fi
cargo run -q -p bench -- --chaos-check BENCH_pr10.json
grep -o '"violations_total":[0-9]*' BENCH_pr10.json | cut -d: -f2 |
awk '{ v=$1 } END { if (v != 0) { printf "chaos oracle reported %d violations\n", v; exit 1 }
      print "chaos oracle ok: 0 violations" }'
grep -o '"device":{[^}]*}' BENCH_pr10.json | tr ',' '\n' | grep -c ':' |
awk '{ if ($1 < 4) { printf "chaos coverage spans only %d device fault classes\n", $1; exit 1 }
       printf "chaos device coverage ok: %d classes\n", $1 }'
grep -o '"cluster":{[^}]*}' BENCH_pr10.json | tr ',' '\n' | grep -c ':' |
awk '{ if ($1 < 3) { printf "chaos coverage spans only %d cluster fault classes\n", $1; exit 1 }
       printf "chaos cluster coverage ok: %d classes\n", $1 }'

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
fi

# seal-perf (benchmark/) is a workspace of its own that binds the crates'
# public surface by name (benchmark/src/surface.rs): build and test it
# against this tree, then let it check itself and run every workload once
# at smoke scale, so the crates cannot drift from what the benchmark
# calls. Results land in benchmark/results/ci/ (ignored by git).
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke ci
