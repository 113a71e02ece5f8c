#!/usr/bin/env bash
# Runs the performance-tracking benchmarks and emits
#   BENCH_PR1.json — tensor backend (matmul, masked softmax, incremental
#                    encoder step; the PR-1 kernels),
#   BENCH_PR3.json — streaming serving path (end-to-end items/sec single-item
#                    vs microbatched at 1-8 shards on an 8k-key tangled
#                    stream, and CorrelationTracker::ObserveItem cost at
#                    1k-100k open keys; the PR-3 pipeline),
#   BENCH_PR4.json — serving-state checkpoint/restore (encode, restore, and
#                    file round-trip latency at 1k/8k open keys; the PR-4
#                    checkpoint subsystem),
#   BENCH_PR6.json — shard-owned-worker serving (Submit+Drain items/sec at
#                    1/2/4/8 workers, and the saturation sweep's shed_rate /
#                    offered_per_sec under kShedNewest with a depth-4 queue;
#                    the PR-6 overload subsystem). Worker scaling needs real
#                    cores — note num_cpus in the context block when reading
#                    the committed numbers.
#   BENCH_PR8.json — TCP front end (loopback loadgen → framing →
#                    TcpIngestServer → Submit at 1/4 connections, with
#                    p50/p99/p999 batch-round-trip latency as user
#                    counters; the PR-8 network subsystem).
#   BENCH_PR9.json — bounded-memory serving (the `kvec soak` harness's
#                    memory-vs-open-keys curve at 25k/50k/100k open keys:
#                    peak steady-state RSS, upward drift vs the flatness
#                    band, shard-pool resident bytes, scratch high water,
#                    and compaction counts; the PR-9 memory subsystem).
#                    The soak CLI emits this shape itself via --curve, and
#                    the run FAILS if post-warm-up RSS trends upward.
#   BENCH_PR10.json — incremental checkpointing (delta write latency vs
#                    churn at 8k/100k open keys, the full rebase write as
#                    the comparator, and restore-from-chain latency by
#                    chain length; the PR-10 delta subsystem). The
#                    acceptance ratio — delta at 1% churn >= 20x faster
#                    than a full write at 100k open keys — is checked by
#                    the script after the run.
#
# Usage: bench/run_benchmarks.sh [build_dir] [out_pr1] [out_pr3] [out_pr4] [out_pr6] [out_pr8] [out_pr9] [out_pr10]
#   build_dir  defaults to ./build (must contain micro_ops / micro_encoder /
#              micro_pipeline / micro_checkpoint / micro_stream_shard /
#              micro_net, plus the kvec driver)
#   out_pr1    defaults to ./BENCH_PR1.json
#   out_pr3    defaults to ./BENCH_PR3.json
#   out_pr4    defaults to ./BENCH_PR4.json
#   out_pr6    defaults to ./BENCH_PR6.json
#   out_pr8    defaults to ./BENCH_PR8.json
#   out_pr9    defaults to ./BENCH_PR9.json
#   out_pr10   defaults to ./BENCH_PR10.json
#
# Threading: benchmarks honour KVEC_NUM_THREADS; the committed numbers are
# single-thread (KVEC_NUM_THREADS=1) so machines with different core counts
# stay comparable.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_PR1="${2:-BENCH_PR1.json}"
OUT_PR3="${3:-BENCH_PR3.json}"
OUT_PR4="${4:-BENCH_PR4.json}"
OUT_PR6="${5:-BENCH_PR6.json}"
OUT_PR8="${6:-BENCH_PR8.json}"
OUT_PR9="${7:-BENCH_PR9.json}"
OUT_PR10="${8:-BENCH_PR10.json}"
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT

export KVEC_NUM_THREADS="${KVEC_NUM_THREADS:-1}"

merge_reports() {
  python3 - "$@" <<'EOF'
import json
import sys

# Google Benchmark reports real_time in each benchmark's own time_unit.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

merged = {"context": None, "benchmarks": {}}
for path in sys.argv[1:-1]:
    with open(path) as f:
        report = json.load(f)
    if merged["context"] is None:
        ctx = report.get("context", {})
        merged["context"] = {
            "date": ctx.get("date"),
            "host_name": ctx.get("host_name"),
            "num_cpus": ctx.get("num_cpus"),
            "mhz_per_cpu": ctx.get("mhz_per_cpu"),
            "kvec_num_threads": __import__("os").environ.get("KVEC_NUM_THREADS"),
        }
    # Standard per-run keys; anything else numeric is a user counter
    # (e.g. the saturation sweep's shed_rate / offered_per_sec).
    standard = {
        "name", "family_index", "per_family_instance_index", "run_name",
        "run_type", "repetitions", "repetition_index", "threads",
        "iterations", "real_time", "cpu_time", "time_unit",
        "items_per_second", "bytes_per_second", "aggregate_name",
        "aggregate_unit", "label",
    }
    for bench in report.get("benchmarks", []):
        entry = {
            "real_time_ns": bench["real_time"]
                            * NS_PER_UNIT[bench.get("time_unit", "ns")],
            "items_per_second": bench.get("items_per_second"),
        }
        for key, value in bench.items():
            if key not in standard and isinstance(value, (int, float)):
                entry[key] = value
        merged["benchmarks"][bench["name"]] = entry

with open(sys.argv[-1], "w") as f:
    json.dump(merged, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {sys.argv[-1]}")
EOF
}

# ---- PR 1: tensor backend ----

"${BUILD_DIR}/micro_ops" \
  --benchmark_filter='BM_MatMul/|BM_MaskedSoftmax' \
  --benchmark_min_time=0.2 \
  --benchmark_out="${TMP_DIR}/ops.json" --benchmark_out_format=json

"${BUILD_DIR}/micro_encoder" \
  --benchmark_filter='BM_IncrementalStreamEncode' \
  --benchmark_min_time=0.2 \
  --benchmark_out="${TMP_DIR}/encoder.json" --benchmark_out_format=json

merge_reports "${TMP_DIR}/ops.json" "${TMP_DIR}/encoder.json" "${OUT_PR1}"

# ---- PR 3: streaming serving path ----

"${BUILD_DIR}/micro_pipeline" \
  --benchmark_filter='BM_StreamServeEndToEnd|BM_CorrelationObserve' \
  --benchmark_min_time=0.5 \
  --benchmark_out="${TMP_DIR}/serving.json" --benchmark_out_format=json

merge_reports "${TMP_DIR}/serving.json" "${OUT_PR3}"

# ---- PR 4: serving-state checkpoint/restore ----

"${BUILD_DIR}/micro_checkpoint" \
  --benchmark_filter='BM_Checkpoint' \
  --benchmark_min_time=0.2 \
  --benchmark_out="${TMP_DIR}/checkpoint.json" --benchmark_out_format=json

merge_reports "${TMP_DIR}/checkpoint.json" "${OUT_PR4}"

# ---- PR 6: shard-owned workers + overload shedding ----

"${BUILD_DIR}/micro_stream_shard" \
  --benchmark_filter='BM_ShardWorker' \
  --benchmark_min_time=0.2 \
  --benchmark_out="${TMP_DIR}/workers.json" --benchmark_out_format=json

merge_reports "${TMP_DIR}/workers.json" "${OUT_PR6}"

# ---- PR 8: TCP front end (loopback serve path) ----

"${BUILD_DIR}/micro_net" \
  --benchmark_filter='BM_LoopbackIngest' \
  --benchmark_min_time=0.5 \
  --benchmark_out="${TMP_DIR}/net.json" --benchmark_out_format=json

merge_reports "${TMP_DIR}/net.json" "${OUT_PR8}"

# ---- PR 9: bounded-memory serving (soak memory-vs-open-keys curve) ----
#
# Not a Google Benchmark binary: the soak harness drives the real sharded
# server and samples /proc RSS, so it writes the merged-report shape
# directly. The run doubles as an assertion — a non-flat RSS trend exits
# non-zero and fails the whole script. Per-item cost comparisons live in
# BENCH_PR3/PR6; this file tracks memory, not throughput.

"${BUILD_DIR}/kvec" soak --keys 100000 --scales 0.25,0.5,1 \
  --curve "${OUT_PR9}" --json > /dev/null
echo "wrote ${OUT_PR9}"

# ---- PR 10: incremental checkpointing (delta chain) ----

"${BUILD_DIR}/micro_checkpoint" \
  --benchmark_filter='BM_DeltaCheckpointWrite|BM_FullCheckpointWrite|BM_RestoreFromChain' \
  --benchmark_min_time=0.2 \
  --benchmark_out="${TMP_DIR}/delta.json" --benchmark_out_format=json

merge_reports "${TMP_DIR}/delta.json" "${OUT_PR10}"

# The headline claim of the delta subsystem, asserted at report time so a
# regression cannot silently land a stale-looking BENCH_PR10.json.
python3 - "${OUT_PR10}" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))["benchmarks"]
delta = report["BM_DeltaCheckpointWrite/100000/1"]["real_time_ns"]
full = report["BM_FullCheckpointWrite/100000"]["real_time_ns"]
ratio = full / delta
print(f"delta vs full checkpoint write at 100k keys / 1% churn: {ratio:.1f}x")
if ratio < 20.0:
    sys.exit(f"FAIL: delta speedup {ratio:.1f}x is below the 20x acceptance bar")
PYEOF
