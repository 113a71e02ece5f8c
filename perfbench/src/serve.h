// The serving loops the workloads run, timed from outside the library:
// every duration is taken around a public call on the steady clock, and
// every verdict is matched back to the batch that carried its halting item.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "core/model.h"
#include "core/sharded_stream_server.h"
#include "inputs.h"
#include "perf_common.h"

namespace perf {

// The shard-owned-worker configuration every sharded loop uses: one worker
// per shard, the block overload policy, the workload's shard bounds.
kvec::ShardedStreamServerConfig ShardedConfig(const WorkloadSpec& spec);

// The stream cut into the batches one closed-loop pass submits.
std::vector<std::vector<kvec::Item>> CutBatches(
    const std::vector<kvec::Item>& items, int batch);

// Incremental checkpoint writes made beside ingest.
struct CheckpointStats {
  std::vector<double> delta_ms;
  std::vector<double> delta_bytes;
  std::vector<double> rebase_ms;
  int64_t failures = 0;
};

// Writes CheckpointIncremental chains from its own thread while the server
// keeps serving: one link every 100 ms, a full rebase after every two
// deltas.
class CheckpointLoop {
 public:
  CheckpointLoop(kvec::ShardedStreamServer* server, std::string base_path,
                 SpanRecorder* spans);
  ~CheckpointLoop();
  CheckpointLoop(const CheckpointLoop&) = delete;
  CheckpointLoop& operator=(const CheckpointLoop&) = delete;

  // Stops and joins the thread, then returns what it wrote (call once).
  CheckpointStats Stop();

 private:
  void Run();

  kvec::ShardedStreamServer* const server_;
  const std::string base_path_;
  SpanRecorder* const spans_;
  CheckpointStats stats_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: starts after the members it uses
};

// One closed-loop pass over the whole stream with a fresh server.
struct PassResult {
  ShardEvents events;              // per shard, emission order, flush last
  std::vector<double> verdict_us;  // policy halts: entry -> verdict
  std::vector<int> verdict_batch;  // the batch that carried each halt
  int64_t start_ns = 0;            // the first call
  std::vector<int64_t> batch_end_ns;  // when each batch's call returned
  int64_t end_ns = 0;              // when Flush returned
  double seconds = 0.0;            // first call .. Flush returned
  int64_t items = 0;
  kvec::StreamServerStats stats;     // merged over shards, after Flush
  std::vector<int64_t> shard_items;  // items_processed per shard
  // Submit passes only.
  std::vector<double> submit_us;      // time inside Submit
  std::vector<double> batch_done_us;  // Submit return -> shard's on_events
  double drain_ms = 0.0;
  CheckpointStats checkpoints;  // when a CheckpointLoop ran
};

// StreamServer::ObserveBatch on the caller's thread, then Flush. A verdict's
// entry is the start of the ObserveBatch call that carried its item.
PassResult ReplayPass(const kvec::KvecModel& model, const WorkloadSpec& spec,
                      const std::vector<std::vector<kvec::Item>>& batches,
                      SpanRecorder* spans);

// ShardedStreamServer::Submit into shard-owned workers under the block
// policy, then Drain and Flush. A verdict's entry is the start of the Submit
// call that carried its item; its exit is the shard's on_events call. With
// a non-empty `checkpoint_base` a CheckpointLoop writes beside ingest.
PassResult SubmitPass(const kvec::KvecModel& model, const WorkloadSpec& spec,
                      const std::vector<std::vector<kvec::Item>>& batches,
                      SpanRecorder* spans, const std::string& checkpoint_base);

// ---- The net probe: open loop over loopback TCP -------------------------

struct NetProbeResult {
  int64_t items_sent = 0;
  int64_t items_failed = 0;     // shed, or in a batch that got no ack
  std::vector<double> call_us;  // IngestClient::Call round trips
  std::vector<double> late_us;  // each send against its schedule
  double acked_items_per_s = 0.0;  // items acked / time spent in Call
  int64_t server_items_shed = 0;
  int64_t server_errors_sent = 0;
  std::string error;  // set up failed, or the accounting self-test tripped
};

// Serves spec.shards workers behind a TcpIngestServer and sends the stream
// over one IngestClient connection at spec.probe_rate for `seconds`, on a
// fixed schedule that does not wait for the server. The client never
// resends a batch: a resend after a lost ack or a partial OVERLOADED accept
// would feed items twice. A last short block stalls one shard's sink and
// checks that the verdicts due during the stall are charged it, measured
// from their scheduled send (the open-loop accounting self-test); that
// block stays out of the client figures.
NetProbeResult RunNetProbe(const kvec::KvecModel& model,
                           const WorkloadSpec& spec, const Stream& stream,
                           double seconds, SpanRecorder* spans);

}  // namespace perf
