#!/usr/bin/env bash
# Regenerate every reconstructed table/figure and extension experiment.
#
# Usage: scripts/run_all_experiments.sh [output.md]
#   output.md  transcript destination (default: experiment_results.md)
#
# The transcript is `reproduce`'s stdout (crates/bench): every experiment
# at Full scale, all of their grids run as one parallel batch. The
# script fails when any shape verdict reads SHAPE DEVIATION.
#
# Set CPE_SKIP_CHECKS=1 to skip the pre-flight quality gate (useful when
# iterating on one experiment with a tree scripts/check.sh already
# vetted).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-experiment_results.md}"

if [[ "${CPE_SKIP_CHECKS:-0}" != 1 ]]; then
    scripts/check.sh
fi

cargo build --release -p cpe-bench -p cpe --bins

status=0
./target/release/reproduce > "$out" || status=$?
if [[ "$status" != 0 ]]; then
    echo "reproduce exited $status: a shape verdict deviated (see" \
         "SHAPE DEVIATION in $out)" >&2
    exit "$status"
fi
echo "wrote $out" >&2

# Machine-readable companion artifacts: one self-describing metrics
# document per paper workload, next to the transcript. Each embeds the
# machine configuration, the end-of-run summary, per-epoch interval
# metrics, and the run's self-profile (see docs/OBSERVABILITY.md).
metrics_dir="${out%.md}_metrics"
mkdir -p "$metrics_dir"
profile_max=200000
for w in compress mpeg db fft sort pmake; do
    echo "profiling $w" >&2
    ./target/release/cpe run --workload "$w" --max "$profile_max" \
        --metrics-json "$metrics_dir/$w.json" > /dev/null
done
echo "wrote $metrics_dir/{compress,mpeg,db,fft,sort,pmake}.json" >&2

# The full configuration × workload grid through the parallel scheduler
# (docs/EXECUTION.md): each workload is recorded once and replayed
# through every configuration.
echo "sweeping config x workload grid" >&2
./target/release/cpe sweep --jobs 0 --max "$profile_max" \
    --metrics-json "$metrics_dir/sweep.json" > /dev/null
echo "wrote $metrics_dir/sweep.json" >&2
