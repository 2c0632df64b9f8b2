#!/usr/bin/env bash
# Appends one row to BENCH_e2e.json, the benchmark's history (a JSON
# array, oldest row first), from the results file of a default
# `bash benchmark/run.sh`:
#
#   scripts/bench-history.sh benchmark/out/results.json
#
# A row is one flat object: date, commit, nproc, rustc and seconds from
# the results file; `workload/metric` -> value for every end-to-end
# metric of every untraced run; and the per-layer values in LAYERS from
# the traced runs. Refuses, leaving the history byte-identical, when a
# run failed, the release profile drifted, or the commit has a row.
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 RESULTS_JSON" >&2; exit 2; }
results=$1
history="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/BENCH_e2e.json"
[ -f "$history" ] || { echo "$history: missing" >&2; exit 1; }

LAYERS='["fig5_sweep/sim.step_ns_per_hop.fig5", "torus32_ckpt/sim.step_ns_per_hop.torus32",
  "torus32_ckpt/sim.new_us.t32", "torus32_ckpt/ckpt.run_overhead_frac",
  "torus32_ckpt/mem.peak_heap_mb", "torus32_ckpt/shard.speedup",
  "trace16_lowrate/sim.skip_frac", "serve_mixed/serve.health_rtt_us"]'

row=$(jq -c --argjson layers "$LAYERS" '
  def metrics(trace): [.runs[] | select(.trace == trace) | .workload as $w
    | .metrics | to_entries[] | {key: "\($w)/\(.key)", value: .value.value}] | from_entries;
  if any(.runs[]; .ok != true) then error("a run is not ok")
  elif .profile_drift != null then error("profile drift: \(.profile_drift)")
  else {date, commit, nproc, rustc, seconds} + metrics(0)
    + (metrics(1) | with_entries(select(.key as $k | $layers | index($k))))
  end' "$results")
commit=$(jq -r .commit <<<"$row")
if jq -e --arg c "$commit" 'any(.[]; .commit == $c)' "$history" >/dev/null; then
  echo "$history already has a row for $commit" >&2
  exit 1
fi
jq --argjson row "$row" '. + [$row]' "$history" >"$history.tmp"
mv "$history.tmp" "$history"
