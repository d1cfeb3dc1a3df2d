#!/bin/sh
# Runs every table/figure reproduction binary in order.
set -e
BUILD=${1:-build}
if [ $# -gt 0 ]; then shift; fi
for b in table1_configs table2_benchmarks fig01_ipc_traces \
         fig02_bb_exec_time fig03_bb_issue_retire fig04_warp_issue_retire \
         fig06_gpubbv_clusters fig08_bb_distribution \
         fig11_warp_distribution fig13_overall_r9nano fig14_overall_mi100 \
         fig15_sampling_levels fig16_real_world fig17_vgg_layers \
         tradeoff_online_offline ablation_thresholds \
         campaign_throughput backend_speedup hotloop_speedup issue_loop \
         serve_load; do
    echo "##### $b #####"
    "$BUILD/bench/$b" "$@"
done
echo "##### micro_components #####"
"$BUILD/bench/micro_components" --benchmark_min_time=0.2

# hotloop_speedup writes BENCH_hotloop.json; surface the telemetry
# schema version it was produced against so downstream tooling can
# reject stale artifacts. Schema v4 dropped the epoch statistics, so an
# older version here means a stale binary ran.
if [ -f BENCH_hotloop.json ]; then
    grep '"telemetry_schema_version": 4,' BENCH_hotloop.json ||
        { echo "BENCH_hotloop.json telemetry_schema_version is not 4" >&2
          exit 1; }
fi

# campaign_throughput writes BENCH_campaign.json with the
# steal-vs-static scheduler comparison; an artifact without the
# scheduler block came from a stale binary.
if [ -f BENCH_campaign.json ]; then
    grep '"telemetry_schema_version": 4,' BENCH_campaign.json ||
        { echo "BENCH_campaign.json telemetry_schema_version is not 4" >&2
          exit 1; }
    grep -q '"steal_ops"' BENCH_campaign.json ||
        { echo "BENCH_campaign.json missing scheduler stats" >&2
          exit 1; }
fi

# backend_speedup writes BENCH_backend.json with the detailed vs
# interval vs auto comparison. The binary already fails itself when a
# stated error bound or minimum speedup is violated; here we only
# check the artifact carries the gate fields (a stale binary would
# not) and that auto mode demonstrably switched on pagerank.
if [ -f BENCH_backend.json ]; then
    grep '"telemetry_schema_version": 4,' BENCH_backend.json ||
        { echo "BENCH_backend.json telemetry_schema_version is not 4" >&2
          exit 1; }
    grep -q '"error_bound_pct"' BENCH_backend.json ||
        { echo "BENCH_backend.json missing error/speedup gates" >&2
          exit 1; }
    grep -q '"backend": "auto".*"latched_kernels": [1-9]' \
        BENCH_backend.json ||
        { echo "BENCH_backend.json: auto mode never latched a kernel" >&2
          exit 1; }
fi
