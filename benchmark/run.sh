#!/usr/bin/env bash
# Runs the benchmark and keeps what it prints.
#
#   benchmark/run.sh --smoke [label]   self-checks, then every workload at
#                                      smoke scale (seconds in total)
#   benchmark/run.sh [label]           the full set: one untraced run and one
#                                      traced run per workload (~3 min)
#
# Results land in benchmark/results/<label>/ (ignored by git):
#   run.jsonl     one `run` document per workload  -> `seal-perf compare`
#   trace.jsonl   one `trace` document per workload (per-layer ledger)
#   REPORT.md     both as tables, one column per workload (`seal-perf report`)
#   <w>.txt       the tables as printed
#   <w>.trace.json  Chrome trace events of the traced rep (chrome://tracing)
#
# SEED=<n> picks the seed (default 1). Compare two labels with
#   seal-perf compare benchmark/results/A/run.jsonl benchmark/results/B/run.jsonl
set -euo pipefail
cd "$(dirname "$0")/.."

scale=full
seconds=10
if [[ "${1:-}" == "--smoke" ]]; then
    scale=smoke
    seconds=0
    shift
fi
label="${1:-$(date +%Y%m%d-%H%M%S)}"
seed="${SEED:-1}"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/seal-perf"
out="benchmark/results/$label"
mkdir -p "$out"
rm -f "$out/run.jsonl" "$out/trace.jsonl"

if [[ "$scale" == smoke ]]; then
    "$bin" verify
fi
for w in load-random read-cold read-hot scan-mixed serve-mixed update-vlog replicated-write; do
    echo "== $w"
    "$bin" run --workload "$w" --seed "$seed" --seconds "$seconds" --scale "$scale" \
        --out "$out/run.jsonl" | tee "$out/$w.txt" | sed '$d'
    "$bin" run --workload "$w" --seed "$seed" --scale "$scale" --trace 1 \
        --out "$out/trace.jsonl" --trace-out "$out/$w.trace.json" >>"$out/$w.txt"
done
"$bin" report "$out/run.jsonl" "$out/trace.jsonl" >"$out/REPORT.md"
echo "results in $out"
