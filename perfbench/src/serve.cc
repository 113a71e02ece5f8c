#include "serve.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "net/frame.h"
#include "net/loadgen.h"
#include "net/tcp_ingest_server.h"
#include "util/check.h"

namespace perf {
namespace {

using kvec::StreamEvent;

// CheckpointLoop's schedule (see serve.h).
constexpr int64_t kCheckpointIntervalNs = 100000000;
constexpr int kRebaseEvery = 2;

bool IsPolicyHalt(const StreamEvent& event) {
  return event.cause == StreamEvent::Cause::kPolicyHalt;
}

// What one shard's on_events sink saw. Written only by that shard's worker
// thread; read by the benchmark after a Drain.
struct ShardLog {
  std::vector<int64_t> start_ns;  // one entry per on_events call
  std::vector<int64_t> end_ns;
  std::vector<StreamEvent> events;
  std::vector<int> callback;  // events[i] arrived in call callback[i]
};

using Sink = std::function<void(int, const std::vector<StreamEvent>&)>;

// A one-shot stall of shard 0's sink, for the open-loop accounting
// self-test: armed with a start time, the first shard-0 call after it
// sleeps for `ns`. Written by shard 0's worker; read after a Drain.
struct SinkStall {
  std::atomic<int64_t> at_ns{0};  // 0 = disarmed
  int64_t ns = 0;
  int64_t began_ns = 0;
  int64_t ended_ns = 0;
};

Sink MakeSink(std::vector<ShardLog>* logs, SinkStall* stall = nullptr) {
  return [logs, stall](int shard, const std::vector<StreamEvent>& events) {
    if (stall != nullptr && shard == 0) {
      const int64_t at = stall->at_ns.load();
      if (at != 0 && NowNs() >= at) {
        stall->at_ns.store(0);
        stall->began_ns = NowNs();
        std::this_thread::sleep_for(std::chrono::nanoseconds(stall->ns));
        stall->ended_ns = NowNs();
      }
    }
    const int64_t start = NowNs();
    ShardLog& log = (*logs)[shard];
    const int call = static_cast<int>(log.start_ns.size());
    for (const StreamEvent& event : events) {
      log.events.push_back(event);
      log.callback.push_back(call);
    }
    log.start_ns.push_back(start);
    log.end_ns.push_back(NowNs());
  };
}

// Appends to routing[s] the index of `batch` for every shard it carries
// items to: the j-th on_events call of shard s answers routing[s][j], since
// a shard worker processes its sub-batches in submission order.
void RouteBatch(const kvec::ShardedStreamServer& server,
                const std::vector<kvec::Item>& items, int batch,
                std::vector<std::vector<int>>* routing) {
  std::vector<bool> touched(routing->size(), false);
  for (const kvec::Item& item : items) touched[server.ShardOf(item.key)] = true;
  for (size_t s = 0; s < touched.size(); ++s) {
    if (touched[s]) (*routing)[s].push_back(batch);
  }
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

void WaitUntil(int64_t deadline_ns) {
  for (;;) {
    const int64_t remaining = deadline_ns - NowNs();
    if (remaining <= 0) return;
    if (remaining > 250000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(remaining - 150000));
    } else {
      std::this_thread::yield();
    }
  }
}

// One stretch of the probe's fixed schedule, drained at its end.
struct Block {
  std::vector<double> late_us;     // per send
  std::vector<double> verdict_us;  // policy halts, from the scheduled send
  std::vector<int> verdict_batch;  // batch that carried each verdict's item
  std::vector<int> verdict_shard;
};

}  // namespace

kvec::ShardedStreamServerConfig ShardedConfig(const WorkloadSpec& spec) {
  kvec::ShardedStreamServerConfig config;
  config.num_shards = spec.shards;
  config.worker_threads = spec.shards;
  config.queue_depth = spec.queue_depth;
  config.overload_policy = kvec::OverloadPolicy::kBlock;
  config.shard = spec.shard;
  return config;
}

std::vector<std::vector<kvec::Item>> CutBatches(
    const std::vector<kvec::Item>& items, int batch) {
  std::vector<std::vector<kvec::Item>> batches;
  for (size_t begin = 0; begin < items.size();
       begin += static_cast<size_t>(batch)) {
    const size_t end = std::min(items.size(), begin + static_cast<size_t>(batch));
    batches.emplace_back(items.begin() + static_cast<long>(begin),
                         items.begin() + static_cast<long>(end));
  }
  return batches;
}

// ---- CheckpointLoop ------------------------------------------------------

CheckpointLoop::CheckpointLoop(kvec::ShardedStreamServer* server,
                               std::string base_path, SpanRecorder* spans)
    : server_(server),
      base_path_(std::move(base_path)),
      spans_(spans),
      thread_([this] { Run(); }) {}

CheckpointLoop::~CheckpointLoop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

CheckpointStats CheckpointLoop::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return std::move(stats_);
}

void CheckpointLoop::Run() {
  kvec::ShardedStreamServer::IncrementalCheckpointState state;
  int64_t next = NowNs();
  while (!stop_.load()) {
    next += kCheckpointIntervalNs;
    while (!stop_.load() && NowNs() < next) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (stop_.load()) break;
    const bool rebase = state.base_fingerprint == 0 ||
                        state.deltas_written >= kRebaseEvery;
    const int64_t start = NowNs();
    const bool ok =
        server_->CheckpointIncremental(base_path_, kRebaseEvery, &state);
    const int64_t end = NowNs();
    spans_->Add("ShardedStreamServer::CheckpointIncremental", start, end, -1,
                -1);
    if (!ok) {
      ++stats_.failures;
      continue;
    }
    const double ms = static_cast<double>(end - start) / 1e6;
    if (rebase) {
      stats_.rebase_ms.push_back(ms);
    } else {
      stats_.delta_ms.push_back(ms);
      std::error_code error;
      const auto bytes = std::filesystem::file_size(
          kvec::ShardedStreamServer::DeltaPath(base_path_, state.deltas_written),
          error);
      if (!error) stats_.delta_bytes.push_back(static_cast<double>(bytes));
    }
  }
}

// ---- Closed loops --------------------------------------------------------

PassResult ReplayPass(const kvec::KvecModel& model, const WorkloadSpec& spec,
                      const std::vector<std::vector<kvec::Item>>& batches,
                      SpanRecorder* spans) {
  PassResult result;
  result.events.resize(1);
  kvec::StreamServer server(model, spec.shard);
  const int64_t start = NowNs();
  result.start_ns = start;
  for (size_t b = 0; b < batches.size(); ++b) {
    const int64_t call = NowNs();
    std::vector<StreamEvent> events = server.ObserveBatch(batches[b]);
    const int64_t done = NowNs();
    result.batch_end_ns.push_back(done);
    spans->Add("StreamServer::ObserveBatch", call, done, -1,
               static_cast<int64_t>(b));
    for (const StreamEvent& event : events) {
      if (IsPolicyHalt(event)) {
        result.verdict_us.push_back(Us(done - call));
        result.verdict_batch.push_back(static_cast<int>(b));
      }
      result.events[0].push_back(event);
    }
    result.items += static_cast<int64_t>(batches[b].size());
  }
  const int64_t flush = NowNs();
  for (const StreamEvent& event : server.Flush()) {
    result.events[0].push_back(event);
  }
  const int64_t end = NowNs();
  spans->Add("StreamServer::Flush", flush, end, -1, -1);
  result.end_ns = end;
  result.seconds = static_cast<double>(end - start) / 1e9;
  result.stats = server.stats();
  result.shard_items = {result.stats.items_processed};
  return result;
}

PassResult SubmitPass(const kvec::KvecModel& model, const WorkloadSpec& spec,
                      const std::vector<std::vector<kvec::Item>>& batches,
                      SpanRecorder* spans, const std::string& checkpoint_base) {
  PassResult result;
  std::vector<ShardLog> logs(spec.shards);
  kvec::ShardedStreamServerConfig config = ShardedConfig(spec);
  config.on_events = MakeSink(&logs);
  kvec::ShardedStreamServer server(model, config);
  std::vector<std::vector<int>> routing(spec.shards);
  for (size_t b = 0; b < batches.size(); ++b) {
    RouteBatch(server, batches[b], static_cast<int>(b), &routing);
  }
  std::unique_ptr<CheckpointLoop> checkpoints;
  if (!checkpoint_base.empty()) {
    checkpoints =
        std::make_unique<CheckpointLoop>(&server, checkpoint_base, spans);
  }

  const size_t num_batches = batches.size();
  std::vector<int64_t> entry(num_batches), returned(num_batches);
  std::vector<int64_t> submit_span(num_batches);
  const int64_t start = NowNs();
  result.start_ns = start;
  for (size_t b = 0; b < num_batches; ++b) {
    entry[b] = NowNs();
    server.Submit(batches[b]);
    returned[b] = NowNs();
    result.batch_end_ns.push_back(returned[b]);
    submit_span[b] = spans->Add("ShardedStreamServer::Submit", entry[b],
                                returned[b], -1, static_cast<int64_t>(b));
    result.items += static_cast<int64_t>(batches[b].size());
  }
  const int64_t drain = NowNs();
  server.Drain();
  const int64_t drained = NowNs();
  spans->Add("ShardedStreamServer::Drain", drain, drained, -1, -1);
  std::vector<StreamEvent> flushed = server.Flush();
  const int64_t end = NowNs();
  spans->Add("ShardedStreamServer::Flush", drained, end, -1, -1);
  if (checkpoints != nullptr) result.checkpoints = checkpoints->Stop();

  result.end_ns = end;
  result.seconds = static_cast<double>(end - start) / 1e9;
  result.drain_ms = static_cast<double>(drained - drain) / 1e6;
  for (size_t b = 0; b < num_batches; ++b) {
    result.submit_us.push_back(Us(returned[b] - entry[b]));
  }
  result.events.resize(spec.shards);
  for (int s = 0; s < spec.shards; ++s) {
    const ShardLog& log = logs[s];
    KVEC_CHECK_EQ(log.start_ns.size(), routing[s].size())
        << "shard " << s << " answered a different number of batches than "
        << "it was sent";
    for (size_t j = 0; j < log.start_ns.size(); ++j) {
      const int b = routing[s][j];
      result.batch_done_us.push_back(Us(log.start_ns[j] - returned[b]));
      spans->Add("on_events", log.start_ns[j], log.end_ns[j], submit_span[b], b);
    }
    for (size_t e = 0; e < log.events.size(); ++e) {
      if (IsPolicyHalt(log.events[e])) {
        const int b = routing[s][log.callback[e]];
        result.verdict_us.push_back(
            Us(log.start_ns[log.callback[e]] - entry[b]));
        result.verdict_batch.push_back(b);
      }
    }
    result.events[s] = log.events;
  }
  for (const StreamEvent& event : flushed) {
    result.events[server.ShardOf(event.key)].push_back(event);
  }
  result.stats = server.stats();
  for (int s = 0; s < spec.shards; ++s) {
    result.shard_items.push_back(server.shard_stats(s).items_processed);
  }
  return result;
}

// ---- The net probe ---------------------------------------------------------

NetProbeResult RunNetProbe(const kvec::KvecModel& model,
                           const WorkloadSpec& spec, const Stream& stream,
                           double seconds, SpanRecorder* spans) {
  namespace net = kvec::net;
  NetProbeResult result;
  std::vector<ShardLog> logs(spec.shards);
  SinkStall stall;
  kvec::ShardedStreamServerConfig config = ShardedConfig(spec);
  config.on_events = MakeSink(&logs, &stall);
  kvec::ShardedStreamServer server(model, config);

  net::TcpIngestServerConfig net_config;
  net_config.num_value_fields = stream.num_value_fields;
  net_config.num_classes = stream.num_classes;
  net_config.idle_timeout_ms = 60000;
  net::TcpIngestServer front(&server, net_config);
  std::string error;
  if (!front.Start(&error)) {
    result.error = "listener: " + error;
    return result;
  }
  net::ClientConfig client_config;
  client_config.port = front.port();
  client_config.request_timeout_ms = 10000;
  net::IngestClient client(client_config);
  if (!client.Connect(&error) ||
      !client.Hello(stream.num_value_fields, stream.num_classes, &error)) {
    result.error = "client: " + error;
    return result;
  }

  const int64_t stream_size = static_cast<int64_t>(stream.items.size());
  int64_t cursor = 0;  // next item of the stream, cycled with fresh keys
  std::vector<int64_t> entry;      // scheduled send per batch
  std::vector<int64_t> call_span;  // span id of each batch's Call
  std::vector<std::vector<int>> routing(spec.shards);
  std::vector<size_t> consumed(spec.shards, 0);  // callbacks already read
  std::vector<size_t> events_seen(spec.shards, 0);
  int64_t acked = 0;
  int64_t call_ns_total = 0;

  auto run_block = [&](double block_seconds) {
    Block block;
    const int64_t num_batches = std::max<int64_t>(
        1, std::llround(spec.probe_rate * block_seconds / spec.batch));
    // Payloads are built before the schedule starts, so encoding never
    // delays a send.
    std::vector<std::string> payloads(num_batches);
    const size_t first_batch = entry.size();
    for (int64_t k = 0; k < num_batches; ++k) {
      std::vector<kvec::Item> items;
      items.reserve(spec.batch);
      for (int i = 0; i < spec.batch; ++i, ++cursor) {
        kvec::Item item = stream.items[cursor % stream_size];
        item.key += static_cast<int>(cursor / stream_size) * stream.key_span;
        items.push_back(std::move(item));
      }
      RouteBatch(server, items, static_cast<int>(first_batch + k), &routing);
      const int64_t encode = NowNs();
      payloads[k] = net::EncodeItems(items);
      spans->Add("net::EncodeItems", encode, NowNs(), -1,
                 static_cast<int64_t>(first_batch + k));
    }

    const double interval_ns = 1e9 * spec.batch / spec.probe_rate;
    const int64_t start = NowNs() + 1000000;
    for (int64_t k = 0; k < num_batches; ++k) {
      const int64_t scheduled = start + std::llround(k * interval_ns);
      entry.push_back(scheduled);
      WaitUntil(scheduled);
      const int64_t send = NowNs();
      block.late_us.push_back(Us(send - scheduled));
      net::Frame reply;
      const auto status =
          client.Call(net::FrameType::kIngestBatch, payloads[k], &reply);
      const int64_t done = NowNs();
      call_ns_total += done - send;
      result.call_us.push_back(Us(done - send));
      call_span.push_back(spans->Add("IngestClient::Call", send, done, -1,
                                     static_cast<int64_t>(first_batch + k)));
      net::IngestAck ack;
      net::ErrorFrame error_frame;
      if (status == net::IngestClient::CallStatus::kOk &&
          reply.type == net::FrameType::kIngestAck &&
          net::DecodeIngestAck(reply.payload, &ack)) {
        acked += ack.accepted;
      } else if (status == net::IngestClient::CallStatus::kOk &&
                 reply.type == net::FrameType::kError &&
                 net::DecodeError(reply.payload, &error_frame)) {
        acked += error_frame.accepted;
        result.items_failed += spec.batch - error_frame.accepted;
      } else {
        result.items_failed += spec.batch;
        std::string reconnect_error;
        client.Close();
        if (client.Connect(&reconnect_error)) {
          client.Hello(stream.num_value_fields, stream.num_classes,
                       &reconnect_error);
        }
      }
    }
    result.late_us.insert(result.late_us.end(), block.late_us.begin(),
                          block.late_us.end());
    server.Drain();

    for (int s = 0; s < spec.shards; ++s) {
      const ShardLog& log = logs[s];
      if (log.start_ns.size() != routing[s].size()) {
        result.error = "shard " + std::to_string(s) + " answered " +
                       std::to_string(log.start_ns.size()) + " of " +
                       std::to_string(routing[s].size()) + " batches";
        return block;
      }
      for (size_t j = consumed[s]; j < log.start_ns.size(); ++j) {
        const int b = routing[s][j];
        spans->Add("on_events", log.start_ns[j], log.end_ns[j], call_span[b], b);
      }
      for (size_t e = events_seen[s]; e < log.events.size(); ++e) {
        if (!IsPolicyHalt(log.events[e])) continue;
        const int b = routing[s][log.callback[e]];
        block.verdict_us.push_back(Us(log.start_ns[log.callback[e]] - entry[b]));
        block.verdict_batch.push_back(b);
        block.verdict_shard.push_back(s);
      }
      consumed[s] = log.start_ns.size();
      events_seen[s] = log.events.size();
    }
    return block;
  };

  run_block(seconds);
  if (!result.error.empty()) return result;
  result.acked_items_per_s =
      call_ns_total > 0 ? acked / (static_cast<double>(call_ns_total) / 1e9)
                        : 0.0;

  // Open-loop accounting self-test: stall shard 0's sink for kStallNs in a
  // short block. Every shard-0 verdict whose batch was due during the stall
  // must be charged the stall from its scheduled send — measuring from the
  // actual send, which backpressure makes late, would hide it.
  constexpr int64_t kStallNs = 60000000;
  const size_t late_before = result.late_us.size();
  const size_t calls_before = result.call_us.size();
  stall.ns = kStallNs;
  stall.at_ns.store(NowNs() + 100000000);
  const Block stalled = run_block(0.4);
  if (!result.error.empty()) return result;
  result.late_us.resize(late_before);
  result.call_us.resize(calls_before);
  int64_t charged = 0;
  for (size_t v = 0; v < stalled.verdict_us.size(); ++v) {
    const int64_t due = entry[stalled.verdict_batch[v]];
    if (stalled.verdict_shard[v] != 0 || due < stall.began_ns ||
        due >= stall.ended_ns) {
      continue;
    }
    ++charged;
    if (stalled.verdict_us[v] + 1000.0 < Us(stall.ended_ns - due)) {
      result.error = "open-loop self-test: a verdict due during a sink stall "
                     "was not charged the stall";
    }
  }
  if (stall.ended_ns == 0 || charged == 0) {
    result.error = "open-loop self-test: the sink stall covered no verdict";
  }

  client.Close();
  front.Shutdown();
  server.Drain();
  const net::TcpIngestServerStats net_stats = front.stats();
  result.server_items_shed = net_stats.items_shed;
  result.server_errors_sent = net_stats.errors_sent;
  result.items_sent = cursor;
  const kvec::StreamServerStats stats = server.stats();
  if (stats.items_processed != cursor - result.items_failed ||
      stats.items_submitted != stats.items_processed + stats.items_shed) {
    result.error = "net probe: submitted/processed/shed counts do not add up";
  }
  return result;
}

}  // namespace perf
