#!/bin/sh
# Regenerates every committed paper output: builds the workspace in release
# mode, then runs each result binary at its defaults, writing its stdout to
# results/<bin>.txt and its stderr to results/<bin>.log. Run from anywhere;
# takes a few minutes on two cores.
set -e
cd "$(dirname "$0")/.."
cargo build --release --offline --workspace
for bin in table2 table3 table4 area_overhead vth_savings cooperative gap_sweep \
    ablation_sensor ablation_rotation ablation_depth ablation_wakeup ablation_tradeoff \
    ablation_routing power_savings thermal_coupling headline; do
  echo "=== running $bin ==="
  ./target/release/$bin > results/$bin.txt 2>results/$bin.log
done
echo ALL_DONE
