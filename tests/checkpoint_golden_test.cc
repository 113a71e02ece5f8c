// Format-compatibility pin for the serving checkpoint container.
//
// A v1 StreamServer checkpoint produced by a fixed generator (tiny
// untrained model, deterministic 120-item stream) is committed under
// tests/data/. This test loads it, asserts the decoded frame and the
// leading payload fields, and restores it into a compatibly-shaped
// server. If either the container layout or the StreamServer section
// layout changes, this test fails — the fix is to bump
// kCheckpointFormatVersion deliberately (and add a new golden), never to
// regenerate this file in place.
//
// Regenerating (only when adding a NEW version's golden):
//   KVEC_REGEN_GOLDEN=tests/data/stream_server_v1.ckpt ./checkpoint_golden_test
// then update the pinned constants below from the printed values.
//
// The version-2 delta golden is a two-shard chain (base + delta.1)
// produced by the same tiny recipe, pinning the delta container frame, the
// manifest layout, and chain restore. Beside it sits the full checkpoint of
// the same server at the chain's end (item 180), which the restored chain
// must re-encode to. Regenerating them:
//   KVEC_REGEN_GOLDEN_V2=tests/data/stream_server_v2_base.ckpt ./checkpoint_golden_test
//
// Every byte pin here compares bytes restored from a committed file, never
// bytes computed by this build: float payloads computed by a build with
// other flags (sanitizers, another instruction set) may differ by a few
// ULP from those of the Release build that wrote the goldens.
#include <cstdlib>
#include <string>
#include <vector>

#include "core/sharded_stream_server.h"
#include "core/stream_server.h"
#include "util/serialize.h"
#include "gtest/gtest.h"

namespace kvec {
namespace {

#ifndef KVEC_TEST_DATA_DIR
#define KVEC_TEST_DATA_DIR "tests/data"
#endif

constexpr char kGoldenFile[] = "/stream_server_v1.ckpt";

// The generator's fixed recipe — must never change, or the committed bytes
// stop matching it.
KvecModel MakeGoldenModel() {
  DatasetSpec spec;
  spec.name = "golden";
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
  config.correlation.value_correlation_window = 16;
  config.correlation.max_value_correlations = 4;
  return KvecModel(config);
}

StreamServerConfig GoldenServerConfig() {
  StreamServerConfig config;
  config.max_window_items = 64;
  config.idle_timeout = 40;
  config.idle_check_interval = 8;
  config.max_open_keys = 12;
  return config;
}

void FeedGoldenStream(StreamServer* server) {
  for (int i = 0; i < 120; ++i) {
    Item item;
    item.key = i % 23;
    item.value = {i % 3};
    item.time = i;
    server->Observe(item);
  }
}

TEST(CheckpointGoldenTest, RegenerateGolden) {
  const char* out_path = std::getenv("KVEC_REGEN_GOLDEN");
  if (out_path == nullptr) {
    GTEST_SKIP() << "set KVEC_REGEN_GOLDEN=<path> to write a fresh golden";
  }
  KvecModel model = MakeGoldenModel();
  StreamServer server(model, GoldenServerConfig());
  FeedGoldenStream(&server);
  ASSERT_TRUE(server.SaveCheckpoint(out_path));
  const StreamServerStats& stats = server.stats();
  std::printf(
      "golden written to %s\n  open_keys=%d items=%lld classified=%lld "
      "halts=%lld idle=%lld capacity=%lld rotation=%lld windows=%d\n",
      out_path, server.open_keys(),
      static_cast<long long>(stats.items_processed),
      static_cast<long long>(stats.sequences_classified),
      static_cast<long long>(stats.policy_halts),
      static_cast<long long>(stats.idle_timeouts),
      static_cast<long long>(stats.capacity_evictions),
      static_cast<long long>(stats.rotation_classifications),
      stats.windows_started);
}

TEST(CheckpointGoldenTest, FrameDecodesAtVersion1) {
  Checkpoint checkpoint;
  ASSERT_TRUE(
      CheckpointLoad(std::string(KVEC_TEST_DATA_DIR) + kGoldenFile,
                     &checkpoint))
      << "committed golden missing or unreadable";
  EXPECT_EQ(checkpoint.version, 1);
  ASSERT_EQ(checkpoint.sections.size(), 1u);
  EXPECT_EQ(checkpoint.sections[0].id, kCheckpointSectionStreamServer);
}

TEST(CheckpointGoldenTest, PayloadFieldsDecodeAsWritten) {
  Checkpoint checkpoint;
  ASSERT_TRUE(CheckpointLoad(
      std::string(KVEC_TEST_DATA_DIR) + kGoldenFile, &checkpoint));
  const CheckpointSection* section =
      checkpoint.Find(kCheckpointSectionStreamServer);
  ASSERT_NE(section, nullptr);

  // Leading fields of the v1 StreamServer payload, in layout order. A
  // layout change (reordered fields, new field without a version bump)
  // breaks these reads.
  BinaryReader reader(section->payload);
  EXPECT_EQ(reader.ReadInt32(), 64);   // max_window_items
  EXPECT_EQ(reader.ReadInt32(), 40);   // idle_timeout
  EXPECT_EQ(reader.ReadInt32(), 8);    // idle_check_interval
  EXPECT_EQ(reader.ReadInt32(), 12);   // max_open_keys
  EXPECT_EQ(reader.ReadInt64(), 120);  // stream position
  EXPECT_EQ(reader.ReadInt32(), 56);   // window_items (120 items, 1 rotation)
  EXPECT_EQ(reader.ReadInt64(), 120);  // stats.items_processed
  ASSERT_TRUE(reader.ok());
}

TEST(CheckpointGoldenTest, RestoresIntoCompatibleServer) {
  KvecModel model = MakeGoldenModel();
  StreamServer server(model, GoldenServerConfig());
  ASSERT_TRUE(server.LoadCheckpoint(std::string(KVEC_TEST_DATA_DIR) +
                                    kGoldenFile));
  // Pinned from generation time (see RegenerateGolden's printout).
  const StreamServerStats& stats = server.stats();
  EXPECT_EQ(server.open_keys(), 10);
  EXPECT_EQ(stats.items_processed, 120);
  EXPECT_EQ(stats.sequences_classified, 36);
  EXPECT_EQ(stats.policy_halts, 24);
  EXPECT_EQ(stats.idle_timeouts, 0);
  EXPECT_EQ(stats.capacity_evictions, 4);
  EXPECT_EQ(stats.rotation_classifications, 8);
  EXPECT_EQ(stats.flush_classifications, 0);
  EXPECT_EQ(stats.windows_started, 2);
  EXPECT_EQ(stats.policy_halts + stats.idle_timeouts +
                stats.capacity_evictions + stats.rotation_classifications +
                stats.flush_classifications,
            stats.sequences_classified);
}

std::string SlurpFile(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFile(path, &bytes)) << "cannot read " << path;
  return bytes;
}

// The full writer, pinned byte for byte: a restored golden re-encodes to
// exactly the committed file.
TEST(CheckpointGoldenTest, FullWriterReproducesTheV1Golden) {
  const std::string golden =
      SlurpFile(std::string(KVEC_TEST_DATA_DIR) + kGoldenFile);
  KvecModel model = MakeGoldenModel();
  StreamServer server(model, GoldenServerConfig());
  ASSERT_TRUE(server.RestoreCheckpoint(golden));
  EXPECT_EQ(server.EncodeCheckpoint(), golden);
}

TEST(CheckpointGoldenTest, UnknownSectionsAreSkipped) {
  Checkpoint checkpoint;
  ASSERT_TRUE(CheckpointLoad(
      std::string(KVEC_TEST_DATA_DIR) + kGoldenFile, &checkpoint));
  // A future writer may append sections this reader has never heard of;
  // they must not break restore.
  // kvec-lint: allow-next(section-id) deliberately unknown future id
  checkpoint.sections.push_back({999, std::string("future payload")});
  KvecModel model = MakeGoldenModel();
  StreamServer server(model, GoldenServerConfig());
  ASSERT_TRUE(server.RestoreCheckpoint(CheckpointEncode(checkpoint)));
  EXPECT_EQ(server.stats().items_processed, 120);
}

// ---- Version-2 delta golden (PR 10) --------------------------------------

constexpr char kDeltaGoldenBase[] = "/stream_server_v2_base.ckpt";
// The full checkpoint of the chain's server after its last link.
constexpr char kDeltaGoldenEnd[] = "/stream_server_v2_end.ckpt";

ShardedStreamServerConfig GoldenShardedConfig() {
  ShardedStreamServerConfig config;
  config.num_shards = 2;
  config.shard = GoldenServerConfig();
  return config;
}

// Same item recipe as the v1 stream, extended: the base is cut at item
// 120 (the v1 golden's cut) and delta 1 carries items 120..179.
void FeedGoldenRange(ShardedStreamServer* server, int from, int to) {
  for (int i = from; i < to; ++i) {
    Item item;
    item.key = i % 23;
    item.value = {i % 3};
    item.time = i;
    server->Observe(item);
  }
}

TEST(CheckpointGoldenTest, RegenerateDeltaGolden) {
  const char* out_base = std::getenv("KVEC_REGEN_GOLDEN_V2");
  if (out_base == nullptr) {
    GTEST_SKIP() << "set KVEC_REGEN_GOLDEN_V2=<base path> to write a fresh "
                    "delta golden (base + .delta.1)";
  }
  KvecModel model = MakeGoldenModel();
  ShardedStreamServer server(model, GoldenShardedConfig());
  ShardedStreamServer::IncrementalCheckpointState state;
  FeedGoldenRange(&server, 0, 120);
  ASSERT_TRUE(server.CheckpointIncremental(out_base, 0, &state));
  FeedGoldenRange(&server, 120, 180);
  ASSERT_TRUE(server.CheckpointIncremental(out_base, 0, &state));
  // The end-of-chain checkpoint goes beside the base.
  const std::string base_path = out_base;
  const size_t slash = base_path.rfind('/');
  const std::string end_path =
      (slash == std::string::npos ? "." : base_path.substr(0, slash)) +
      kDeltaGoldenEnd;
  ASSERT_TRUE(server.SaveCheckpoint(end_path));
  const StreamServerStats stats = server.stats();
  std::printf(
      "delta golden written to %s{,.delta.1} and %s\n  open_keys=%d "
      "items=%lld classified=%lld windows=%d\n",
      out_base, end_path.c_str(), server.open_keys(),
      static_cast<long long>(stats.items_processed),
      static_cast<long long>(stats.sequences_classified),
      stats.windows_started);
}

TEST(CheckpointGoldenTest, DeltaFrameDecodesAtVersion2) {
  const std::string base_path =
      std::string(KVEC_TEST_DATA_DIR) + kDeltaGoldenBase;
  const std::string delta_path = ShardedStreamServer::DeltaPath(base_path, 1);

  Checkpoint delta;
  ASSERT_TRUE(CheckpointLoad(delta_path, &delta))
      << "committed delta golden missing or unreadable";
  EXPECT_EQ(delta.version, kCheckpointDeltaFormatVersion);
  ASSERT_EQ(delta.sections.size(), 3u);
  EXPECT_EQ(delta.sections[0].id, kCheckpointSectionDeltaManifest);
  EXPECT_EQ(delta.sections[1].id, kCheckpointSectionShardDelta);
  EXPECT_EQ(delta.sections[2].id, kCheckpointSectionShardDelta);

  // Manifest layout: base fingerprint, previous-link fingerprint (the base
  // again for link 1), sequence number, shard count.
  BinaryReader reader(delta.sections[0].payload);
  const uint64_t stored_base = static_cast<uint64_t>(reader.ReadInt64());
  const uint64_t stored_prev = static_cast<uint64_t>(reader.ReadInt64());
  EXPECT_EQ(reader.ReadInt64(), 1);  // seq
  EXPECT_EQ(reader.ReadInt32(), 2);  // num_shards
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(stored_base, CheckpointFingerprint(SlurpFile(base_path)));
  EXPECT_EQ(stored_prev, stored_base);
}

TEST(CheckpointGoldenTest, FullWriterReproducesTheV2BaseGolden) {
  const std::string golden =
      SlurpFile(std::string(KVEC_TEST_DATA_DIR) + kDeltaGoldenBase);
  KvecModel model = MakeGoldenModel();
  ShardedStreamServer server(model, GoldenShardedConfig());
  ASSERT_TRUE(server.RestoreCheckpoint(golden));
  EXPECT_EQ(server.EncodeCheckpoint(), golden);
}

TEST(CheckpointGoldenTest, DeltaChainRestoresIntoCompatibleServer) {
  const std::string base_path =
      std::string(KVEC_TEST_DATA_DIR) + kDeltaGoldenBase;
  KvecModel model = MakeGoldenModel();
  ShardedStreamServer restored(model, GoldenShardedConfig());
  ASSERT_TRUE(restored.RestoreFromCheckpointChain(base_path));

  // The committed chain must reconstruct exactly the state its writer
  // reached after the generator's 180 items.
  EXPECT_EQ(restored.EncodeCheckpoint(),
            SlurpFile(std::string(KVEC_TEST_DATA_DIR) + kDeltaGoldenEnd));
  EXPECT_EQ(restored.stats().items_processed, 180);
}

}  // namespace
}  // namespace kvec
