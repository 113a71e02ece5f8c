#include "core/sharded_stream_server.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "data/generator.h"
#include "data/traffic_generator.h"
#include "gtest/gtest.h"

namespace kvec {
namespace {

struct Fixture {
  Dataset dataset;
  std::unique_ptr<KvecModel> model;
};

Fixture TrainSmallModel(uint64_t seed = 71) {
  TrafficGeneratorConfig generator_config;
  generator_config.num_classes = 2;
  generator_config.concurrency = 3;
  generator_config.avg_flow_length = 12.0;
  generator_config.min_flow_length = 6;
  generator_config.handshake_sharpness = 6.0;
  TrafficGenerator generator(generator_config);
  Fixture fixture;
  fixture.dataset = GenerateDataset(generator, {12, 2, 6}, seed);
  KvecConfig config = KvecConfig::ForSpec(fixture.dataset.spec);
  config.embed_dim = 12;
  config.state_dim = 16;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 16;
  config.epochs = 3;
  config.beta = 5e-3f;
  fixture.model = std::make_unique<KvecModel>(config);
  KvecTrainer trainer(fixture.model.get());
  trainer.Train(fixture.dataset.train);
  return fixture;
}

// The test episodes concatenated into one stream with globally-unique keys.
std::vector<Item> GlobalStream(const Dataset& dataset) {
  std::vector<Item> stream;
  int offset = 0;
  for (const TangledSequence& episode : dataset.test) {
    for (Item item : episode.items) {
      item.key += offset;
      stream.push_back(item);
    }
    offset += 100;
  }
  return stream;
}

// key -> (predicted_label, observed_items)
using VerdictMap = std::map<int, std::pair<int, int>>;

void Record(const std::vector<StreamEvent>& events, VerdictMap* verdicts) {
  for (const StreamEvent& event : events) {
    auto [it, inserted] = verdicts->emplace(
        event.key, std::make_pair(event.predicted_label, event.observed_items));
    ASSERT_TRUE(inserted) << "key " << event.key << " classified twice";
  }
}

// Runs a case under both shard executors: inline (false) and
// worker-owned, one worker per shard (true).
class ShardedExecutorTest : public ::testing::TestWithParam<bool> {
 protected:
  int WorkerThreads(int num_shards) const {
    return GetParam() ? num_shards : 0;
  }
};

INSTANTIATE_TEST_SUITE_P(Executors, ShardedExecutorTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "WorkerOwned" : "Inline";
                         });

TEST_P(ShardedExecutorTest, MatchesOneServerPerPartition) {
  // Keys are partitioned by ShardOf, so no cross-shard correlation exists
  // that a per-partition StreamServer would not also cut: the sharded
  // server must emit identical per-key verdicts to one plain StreamServer
  // per partition fed that partition's sub-stream.
  Fixture fixture = TrainSmallModel(71);
  ShardedStreamServerConfig config;
  config.num_shards = 4;
  config.worker_threads = WorkerThreads(config.num_shards);
  ShardedStreamServer sharded(*fixture.model, config);

  std::vector<std::unique_ptr<StreamServer>> partitions;
  for (int s = 0; s < config.num_shards; ++s) {
    partitions.push_back(
        std::make_unique<StreamServer>(*fixture.model, config.shard));
  }

  VerdictMap sharded_verdicts, partition_verdicts;
  for (const Item& item : GlobalStream(fixture.dataset)) {
    Record(sharded.Observe(item), &sharded_verdicts);
    Record(partitions[sharded.ShardOf(item.key)]->Observe(item),
           &partition_verdicts);
  }
  Record(sharded.Flush(), &sharded_verdicts);
  for (const auto& partition : partitions) {
    Record(partition->Flush(), &partition_verdicts);
  }

  ASSERT_FALSE(sharded_verdicts.empty());
  EXPECT_EQ(sharded_verdicts, partition_verdicts);
}

TEST_P(ShardedExecutorTest, ObserveBatchMatchesPerItemObserve) {
  Fixture fixture = TrainSmallModel(72);
  ShardedStreamServerConfig config;
  config.num_shards = 4;
  config.worker_threads = WorkerThreads(config.num_shards);
  ShardedStreamServer batched(*fixture.model, config);
  ShardedStreamServer per_item(*fixture.model, config);

  const std::vector<Item> stream = GlobalStream(fixture.dataset);
  VerdictMap batched_verdicts, per_item_verdicts;
  // Uneven chunk sizes so batch boundaries fall mid-episode.
  for (size_t begin = 0; begin < stream.size();) {
    const size_t size = std::min<size_t>(1 + begin % 37,
                                         stream.size() - begin);
    std::vector<Item> batch(stream.begin() + begin,
                            stream.begin() + begin + size);
    Record(batched.ObserveBatch(batch), &batched_verdicts);
    begin += size;
  }
  for (const Item& item : stream) {
    Record(per_item.Observe(item), &per_item_verdicts);
  }
  Record(batched.Flush(), &batched_verdicts);
  Record(per_item.Flush(), &per_item_verdicts);

  ASSERT_FALSE(batched_verdicts.empty());
  EXPECT_EQ(batched_verdicts, per_item_verdicts);

  const StreamServerStats batched_stats = batched.stats();
  const StreamServerStats per_item_stats = per_item.stats();
  EXPECT_EQ(batched_stats.items_processed, per_item_stats.items_processed);
  EXPECT_EQ(batched_stats.sequences_classified,
            per_item_stats.sequences_classified);
  EXPECT_EQ(batched_stats.policy_halts, per_item_stats.policy_halts);
}

TEST_P(ShardedExecutorTest, MergedStatsAddUp) {
  Fixture fixture = TrainSmallModel(73);
  ShardedStreamServerConfig config;
  config.num_shards = 3;
  config.worker_threads = WorkerThreads(config.num_shards);
  ShardedStreamServer server(*fixture.model, config);

  const std::vector<Item> stream = GlobalStream(fixture.dataset);
  server.ObserveBatch(stream);
  const int64_t flushed = static_cast<int64_t>(server.Flush().size());

  const StreamServerStats stats = server.stats();
  EXPECT_EQ(stats.items_processed, static_cast<int64_t>(stream.size()));
  EXPECT_EQ(stats.flush_classifications, flushed);
  EXPECT_EQ(stats.policy_halts + stats.idle_timeouts +
                stats.capacity_evictions + stats.rotation_classifications +
                stats.flush_classifications,
            stats.sequences_classified);
  int64_t by_class = 0;
  for (int64_t count : stats.class_counts) by_class += count;
  EXPECT_EQ(by_class, stats.sequences_classified);
  EXPECT_EQ(stats.windows_started, config.num_shards);  // no rotations here

  // The merged view is exactly the sum of the per-shard views.
  int64_t per_shard_items = 0;
  int64_t per_shard_verdicts = 0;
  for (int s = 0; s < server.num_shards(); ++s) {
    const StreamServerStats shard = server.shard_stats(s);
    per_shard_items += shard.items_processed;
    per_shard_verdicts += shard.sequences_classified;
  }
  EXPECT_EQ(per_shard_items, stats.items_processed);
  EXPECT_EQ(per_shard_verdicts, stats.sequences_classified);
}

TEST_P(ShardedExecutorTest, EveryKeyGetsExactlyOneVerdict) {
  Fixture fixture = TrainSmallModel(74);
  ShardedStreamServerConfig config;
  config.num_shards = 5;
  config.worker_threads = WorkerThreads(config.num_shards);
  ShardedStreamServer server(*fixture.model, config);

  VerdictMap verdicts;
  Record(server.ObserveBatch(GlobalStream(fixture.dataset)), &verdicts);
  Record(server.Flush(), &verdicts);

  int expected_keys = 0;
  for (const TangledSequence& episode : fixture.dataset.test) {
    expected_keys += episode.num_keys();
  }
  EXPECT_EQ(static_cast<int>(verdicts.size()), expected_keys);
  EXPECT_EQ(server.open_keys(), 0);
  EXPECT_TRUE(server.Flush().empty());  // idempotent
}

TEST(ShardedStreamServerTest, PerShardCapacityCapHolds) {
  Fixture fixture = TrainSmallModel(75);
  ShardedStreamServerConfig config;
  config.num_shards = 2;
  config.shard.max_open_keys = 4;
  config.shard.idle_timeout = 1 << 20;
  ShardedStreamServer server(*fixture.model, config);

  Item base = fixture.dataset.test[0].items[0];
  for (int key = 0; key < 100; ++key) {
    Item item = base;
    item.key = key;
    item.time = key;
    server.Observe(item);
    EXPECT_LE(server.open_keys(),
              config.num_shards * config.shard.max_open_keys);
  }
  EXPECT_GE(server.stats().capacity_evictions, 1);
}

TEST(ShardedStreamServerTest, ShardOfIsStableAndInRange) {
  Fixture fixture = TrainSmallModel(76);
  ShardedStreamServerConfig config;
  config.num_shards = 8;
  ShardedStreamServer server(*fixture.model, config);
  for (int key = -5; key < 1000; ++key) {
    const int shard = server.ShardOf(key);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, config.num_shards);
    EXPECT_EQ(shard, server.ShardOf(key));
  }
}

TEST(ShardedStreamServerDeathTest, RejectsBadShardCount) {
  Fixture fixture = TrainSmallModel(77);
  ShardedStreamServerConfig bad;
  bad.num_shards = 0;
  EXPECT_DEATH(ShardedStreamServer(*fixture.model, bad), "check failed");
}

}  // namespace
}  // namespace kvec
