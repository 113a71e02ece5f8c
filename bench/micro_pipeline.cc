// Micro benchmarks of the end-to-end pipeline pieces: episode generation,
// one training step, evaluation, and streaming inference throughput —
// including the PR-3 serving benchmarks (BENCH_PR3.json): end-to-end
// items/sec of the stream-serving path (single-item vs microbatched, 1-8
// shards, 8k-key tangled stream) and the per-item cost of the indexed
// correlation tracker as the open-key count grows.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/online.h"
#include "core/sharded_stream_server.h"
#include "core/trainer.h"
#include "data/movielens_generator.h"
#include "data/traffic_generator.h"

namespace kvec {
namespace {

TrafficGeneratorConfig SmallTraffic() {
  TrafficGeneratorConfig config;
  config.num_classes = 6;
  config.concurrency = 4;
  config.avg_flow_length = 20.0;
  config.min_flow_length = 8;
  return config;
}

KvecConfig ModelConfig(const DatasetSpec& spec) {
  KvecConfig config = KvecConfig::ForSpec(spec);
  config.embed_dim = 16;
  config.state_dim = 24;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 32;
  return config;
}

void BM_TrafficEpisodeGeneration(benchmark::State& state) {
  TrafficGenerator generator(SmallTraffic());
  Rng rng(1);
  int64_t items = 0;
  for (auto _ : state) {
    TangledSequence episode = generator.GenerateEpisode(rng);
    items += static_cast<int64_t>(episode.items.size());
    benchmark::DoNotOptimize(episode);
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_TrafficEpisodeGeneration);

void BM_MovieLensEpisodeGeneration(benchmark::State& state) {
  MovieLensGeneratorConfig config;
  config.concurrency = 4;
  config.avg_sequence_length = 40.0;
  MovieLensGenerator generator(config);
  Rng rng(2);
  int64_t items = 0;
  for (auto _ : state) {
    TangledSequence episode = generator.GenerateEpisode(rng);
    items += static_cast<int64_t>(episode.items.size());
    benchmark::DoNotOptimize(episode);
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_MovieLensEpisodeGeneration);

void BM_TrainEpoch(benchmark::State& state) {
  TrafficGenerator generator(SmallTraffic());
  Rng rng(3);
  std::vector<TangledSequence> episodes;
  for (int e = 0; e < 8; ++e) {
    episodes.push_back(generator.GenerateEpisode(rng));
  }
  KvecConfig config = ModelConfig(generator.spec());
  KvecModel model(config);
  KvecTrainer trainer(&model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.TrainEpoch(episodes));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_TrainEpoch);

void BM_Evaluate(benchmark::State& state) {
  TrafficGenerator generator(SmallTraffic());
  Rng rng(4);
  std::vector<TangledSequence> episodes;
  for (int e = 0; e < 8; ++e) {
    episodes.push_back(generator.GenerateEpisode(rng));
  }
  KvecConfig config = ModelConfig(generator.spec());
  KvecModel model(config);
  KvecTrainer trainer(&model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.Evaluate(episodes));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_Evaluate);

void BM_OnlineInferencePerItem(benchmark::State& state) {
  TrafficGenerator generator(SmallTraffic());
  Rng rng(5);
  TangledSequence episode = generator.GenerateEpisode(rng);
  KvecConfig config = ModelConfig(generator.spec());
  KvecModel model(config);
  int64_t items = 0;
  for (auto _ : state) {
    OnlineClassifier online(model);
    for (const Item& item : episode.items) {
      benchmark::DoNotOptimize(online.Observe(item));
    }
    items += static_cast<int64_t>(episode.items.size());
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_OnlineInferencePerItem);

// ---- PR-3 serving benchmarks (BENCH_PR3.json) ---------------------------

// A tiny untrained model: the end-to-end serving benchmarks measure the
// serving layer (correlation index, arena caches, microbatched GEMMs,
// eviction bookkeeping), so model quality is irrelevant and inference cost
// is kept small on purpose. Mirrors bench/micro_stream_shard.cc.
KvecModel MakeServingModel() {
  DatasetSpec spec;
  spec.name = "bench";
  spec.value_fields = {{"field", 8}};
  spec.num_classes = 2;
  spec.max_keys_per_episode = 64;
  spec.max_sequence_length = 64;
  spec.max_episode_length = 64;
  KvecConfig config = KvecConfig::ForSpec(spec);
  config.embed_dim = 8;
  config.state_dim = 8;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 8;
  config.correlation.max_value_correlations = 4;
  config.correlation.value_correlation_window = 16;
  return KvecModel(config);
}

// Round-robin over `num_keys` concurrent keys, all items carrying the same
// session value: every open session is a candidate match for every item,
// the worst case for correlation matching.
std::vector<Item> MakeTangledStream(int num_keys, int total_items) {
  std::vector<Item> items;
  items.reserve(total_items);
  for (int i = 0; i < total_items; ++i) {
    Item item;
    item.key = i % num_keys;
    item.value = {0};
    item.time = i;
    items.push_back(item);
  }
  return items;
}

// End-to-end items/sec of the serving path on a maximally tangled 8k-key
// stream. Args: {num_shards, batch_size}; batch_size 1 drives the
// item-at-a-time Observe path, larger sizes the microbatched GEMM path.
// {1, 1} is the configuration the pre-PR baseline was measured with.
// Timed on the wall clock, so items/s is not inflated by work done off the
// main thread.
void BM_StreamServeEndToEnd(benchmark::State& state) {
  const int num_shards = static_cast<int>(state.range(0));
  const int batch_size = static_cast<int>(state.range(1));
  KvecModel model = MakeServingModel();
  const std::vector<Item> stream = MakeTangledStream(/*num_keys=*/8192,
                                                     /*total_items=*/8192);
  ShardedStreamServerConfig config;
  config.num_shards = num_shards;
  config.shard.max_window_items = 1 << 30;
  config.shard.idle_timeout = 1 << 30;
  config.shard.idle_check_interval = 1 << 30;
  config.shard.max_open_keys = 1 << 20;

  for (auto _ : state) {
    ShardedStreamServer server(model, config);
    if (batch_size <= 1) {
      for (const Item& item : stream) {
        benchmark::DoNotOptimize(server.Observe(item));
      }
    } else {
      for (size_t begin = 0; begin < stream.size();
           begin += static_cast<size_t>(batch_size)) {
        const size_t end =
            std::min(stream.size(), begin + static_cast<size_t>(batch_size));
        std::vector<Item> batch(stream.begin() + begin, stream.begin() + end);
        benchmark::DoNotOptimize(server.ObserveBatch(batch));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_StreamServeEndToEnd)
    ->Args({1, 1})
    ->Args({1, 256})
    ->Args({2, 256})
    ->Args({4, 256})
    ->Args({8, 256})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Steady-state per-item cost of CorrelationTracker::ObserveItem with
// `open_keys` open sessions. The inverted index walks only the sessions
// inside the recency window, so the cost must stay flat from 1k to 100k
// open keys (the pre-index tracker scanned every open session per item —
// linear). Sessions rotate every round (two alternating session values) so
// matched sessions stay short and the measurement isolates the lookup.
void BM_CorrelationObserve(benchmark::State& state) {
  const int open_keys = static_cast<int>(state.range(0));
  CorrelationOptions options;
  options.use_key_correlation = false;  // isolate the value-matching path
  options.use_value_correlation = true;
  options.value_correlation_window = 64;
  options.max_value_correlations = 8;
  options.session_field = 0;
  CorrelationTracker tracker(options);

  Item item;
  item.value = {0};
  for (int i = 0; i < open_keys; ++i) {
    item.key = i;
    tracker.ObserveItem(item);
  }
  int next = 0;
  for (auto _ : state) {
    item.key = next % open_keys;
    item.value[0] = (next / open_keys) % 2;  // rotate sessions every round
    next = next + 1 == 2 * open_keys ? 0 : next + 1;
    benchmark::DoNotOptimize(tracker.ObserveItem(item));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CorrelationObserve)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace kvec
