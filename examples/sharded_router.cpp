// Scenario: a router serving a high-concurrency tangled stream across
// shards.
//
// bounded_server shows the bounds a single serving process needs;
// this example shows the scale-up: ShardedStreamServer partitions the key
// space across N independent StreamServer shards (hash routing, a mutex
// and a full engine per shard) and ingests batches via ObserveBatch, which
// hands each shard its contiguous microbatch as one task. With the default
// inline executor used here the shards run one after another on the
// caller's thread; per-shard engines track only their own keys (bounded
// memory per shard), and the per-shard mutexes let concurrent callers
// serve different shards at once. Expect the ratio near (or below) 1x:
// since the correlation tracker's inverted index removed the per-item
// session scan, sharding buys isolation and, with shard-owned workers
// (`worker_threads = num_shards`), wall-clock parallelism, not
// single-thread speed (see docs/SERVING.md).
//
// The demo trains a small model, replays the test episodes through a
// 1-shard and a 4-shard server, and prints the merged stats plus the
// per-shard breakdown and the measured throughput ratio.
//
// Build & run:   ./build/example_sharded_router
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <vector>

#include "core/sharded_stream_server.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/traffic_generator.h"

int main() {
  using namespace kvec;

  // ---- Offline: train a small model on synthetic traffic. ----
  TrafficGeneratorConfig data_config;
  data_config.num_classes = 4;
  data_config.concurrency = 6;  // heavily tangled episodes
  data_config.avg_flow_length = 12.0;
  data_config.min_flow_length = 6;
  data_config.handshake_sharpness = 5.0;
  TrafficGenerator generator(data_config);
  // A large test split: interleaved below, it yields hundreds of flows
  // live at once, the regime sharding is for.
  SplitCounts counts;
  counts.train = 40;
  counts.validation = 2;
  counts.test = 48;
  Dataset dataset = GenerateDataset(generator, counts, /*seed=*/1717);
  KvecConfig config = KvecConfig::ForSpec(dataset.spec);
  config.embed_dim = 16;
  config.state_dim = 24;
  config.num_blocks = 1;
  config.epochs = 6;
  config.beta = 1e-2f;
  KvecModel model(config);
  KvecTrainer trainer(&model);
  trainer.Train(dataset.train);
  std::printf("trained model (%lld parameters)\n",
              static_cast<long long>(model.ParameterCount()));

  // ---- The live stream: all test episodes interleaved round-robin (keys
  // made global), so every episode's flows are live at once — a router
  // sees many tenants concurrently, not one episode at a time. ----
  std::vector<Item> stream;
  std::map<int, int> truth;  // global key -> true label
  size_t longest = 0;
  for (const TangledSequence& episode : dataset.test) {
    longest = std::max(longest, episode.items.size());
  }
  for (size_t position = 0; position < longest; ++position) {
    int offset = 0;
    for (const TangledSequence& episode : dataset.test) {
      if (position < episode.items.size()) {
        Item item = episode.items[position];
        const int global_key = item.key + offset;
        truth[global_key] = episode.labels.at(item.key);
        item.key = global_key;
        stream.push_back(item);
      }
      offset += 1000;
    }
  }

  // ---- Online: serve the same stream at 1 shard and at 4 shards. ----
  constexpr int kBatch = 128;
  double elapsed_ms[2] = {0, 0};
  const int shard_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    ShardedStreamServerConfig server_config;
    server_config.num_shards = shard_counts[run];
    server_config.shard.max_window_items = 8192;
    // Idle timeouts tick in per-shard positions; keep the timeout above
    // the whole stream so both runs serve identical open-flow populations.
    server_config.shard.idle_timeout = 8192;
    server_config.shard.max_open_keys = 1024;
    ShardedStreamServer server(model, server_config);

    int correct = 0;
    const auto start = std::chrono::steady_clock::now();
    for (size_t begin = 0; begin < stream.size(); begin += kBatch) {
      const size_t end = std::min(stream.size(), begin + kBatch);
      std::vector<Item> batch(stream.begin() + begin, stream.begin() + end);
      for (const StreamEvent& event : server.ObserveBatch(batch)) {
        if (event.predicted_label == truth[event.key]) ++correct;
      }
    }
    for (const StreamEvent& event : server.Flush()) {
      if (event.predicted_label == truth[event.key]) ++correct;
    }
    elapsed_ms[run] = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();

    const StreamServerStats stats = server.stats();
    std::printf(
        "\n%d shard(s): %lld items, %lld verdicts (%.1f%% correct), "
        "%.1f ms\n",
        server.num_shards(), static_cast<long long>(stats.items_processed),
        static_cast<long long>(stats.sequences_classified),
        100.0 * correct / static_cast<double>(stats.sequences_classified),
        elapsed_ms[run]);
    std::printf(
        "  causes: %lld policy, %lld idle, %lld capacity, %lld rotation, "
        "%lld flush\n",
        static_cast<long long>(stats.policy_halts),
        static_cast<long long>(stats.idle_timeouts),
        static_cast<long long>(stats.capacity_evictions),
        static_cast<long long>(stats.rotation_classifications),
        static_cast<long long>(stats.flush_classifications));
    for (int s = 0; s < server.num_shards(); ++s) {
      const StreamServerStats shard = server.shard_stats(s);
      std::printf("  shard %d: %6lld items, %5lld verdicts, %d window(s)\n",
                  s, static_cast<long long>(shard.items_processed),
                  static_cast<long long>(shard.sequences_classified),
                  shard.windows_started);
    }
  }
  std::printf(
      "\nthroughput ratio at %d shards: %.2fx "
      "(expect ~1x on a single core; shards pay off with real cores)\n",
      shard_counts[1], elapsed_ms[0] / elapsed_ms[1]);
  return 0;
}
