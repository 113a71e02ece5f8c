#include "core/sharded_stream_server.h"

#include <cstdint>
#include <cstdio>
#include <utility>

#include "util/check.h"
#include "util/fault_injection.h"
#include "util/mutex.h"

namespace kvec {

namespace {

// Wellons' lowbias32 integer mixer: adjacent key ids must land on
// different shards, so the trivial key % num_shards is not enough once
// callers assign keys in blocks (episode offsets, per-tenant ranges).
uint32_t MixKey(uint32_t key) {
  key ^= key >> 16;
  key *= 0x7feb352dU;
  key ^= key >> 15;
  key *= 0x846ca68bU;
  key ^= key >> 16;
  return key;
}

// Completion count for a fan-out of waited-on tasks: the posting thread
// waits until every shard ran its task (inline, they all ran before the
// wait). The count is fixed at
// construction (before any task can see the barrier), so only the
// decrement and the wait need the mutex.
class Barrier {
 public:
  explicit Barrier(int count) : remaining_(count) {}

  void Arrive() {
    MutexLock lock(mutex_);
    if (--remaining_ == 0) done_.NotifyAll();
  }
  void Wait() {
    MutexLock lock(mutex_);
    while (remaining_ != 0) done_.Wait(mutex_);
  }

 private:
  Mutex mutex_;
  CondVar done_;
  int remaining_ KVEC_GUARDED_BY(mutex_);
};

// Shard 0's events first, emission order within a shard.
std::vector<StreamEvent> Concat(
    const std::vector<std::vector<StreamEvent>>& shard_events) {
  size_t total = 0;
  for (const auto& events : shard_events) total += events.size();
  std::vector<StreamEvent> merged;
  merged.reserve(total);
  for (const auto& events : shard_events) {
    merged.insert(merged.end(), events.begin(), events.end());
  }
  return merged;
}

}  // namespace

ShardedStreamServer::ShardedStreamServer(
    const KvecModel& model, const ShardedStreamServerConfig& config)
    : model_(model), config_(config) {
  KVEC_CHECK_GT(config.num_shards, 0);
  KVEC_CHECK(config.worker_threads == 0 ||
             config.worker_threads == config.num_shards)
      << "worker_threads must be 0 (inline) or num_shards (one owned "
         "worker per shard), got "
      << config.worker_threads << " for " << config.num_shards << " shards";
  if (config.worker_threads > 0) {
    KVEC_CHECK_GT(config.queue_depth, 0);
  }
  shards_.reserve(config.num_shards);
  for (int s = 0; s < config.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    {
      MutexLock lock(shard->mutex);
      shard->server = std::make_unique<StreamServer>(model, config.shard);
    }
    if (config.worker_threads > 0) {
      shard->queue =
          std::make_unique<BoundedQueue<ShardTask>>(config.queue_depth);
    }
    shards_.push_back(std::move(shard));
  }
  // Workers start only after every shard is constructed: a worker may
  // never touch another shard, but the loop captures `this`.
  if (config.worker_threads > 0) {
    for (int s = 0; s < config.num_shards; ++s) {
      shards_[s]->worker = std::thread([this, s]() {
        ShardTask task;
        while (shards_[s]->queue->Pop(&task)) RunTask(s, task);
      });
    }
  }
}

ShardedStreamServer::~ShardedStreamServer() {
  if (config_.worker_threads == 0) return;
  // Close-then-join is the graceful quiesce: Pop keeps handing out already
  // accepted tasks until the queue is empty, so no accepted batch is lost.
  for (const auto& shard : shards_) shard->queue->Close();
  for (const auto& shard : shards_) shard->worker.join();
}

ShardedStreamServer::PushResult ShardedStreamServer::Dispatch(
    int shard, ShardTask task, bool sheddable,
    std::vector<ShardTask>* shed) const {
  if (config_.worker_threads == 0) {
    RunTask(shard, task);
    return PushResult::kAccepted;
  }
  return shards_[shard]->queue->Push(
      std::move(task),
      sheddable ? config_.overload_policy : OverloadPolicy::kBlock, sheddable,
      shed);
}

void ShardedStreamServer::RunTask(int shard_index, ShardTask& task) const {
  Shard& shard = *shards_[shard_index];
  if (task.fn) {
    MutexLock lock(shard.mutex);
    task.fn(shard.server);
    return;
  }
  // Stall point: tests hold a worker here mid-stream to saturate its queue
  // deterministically (the verdict is irrelevant — not a failable site).
  (void)KVEC_FAULT_POINT("shard_worker.batch");
  std::vector<StreamEvent> events;
  {
    MutexLock lock(shard.mutex);
    events = shard.server->ObserveBatch(task.items);
  }
  if (config_.on_events) config_.on_events(shard_index, events);
}

void ShardedStreamServer::RunOnShards(const std::vector<int>& shards,
                                      const ShardFn& fn) const {
  Barrier barrier(static_cast<int>(shards.size()));
  for (int s : shards) {
    ShardTask task;
    task.fn = [&fn, &barrier, s](ServerSlot& server) {
      fn(s, server);
      barrier.Arrive();
    };
    KVEC_CHECK(Dispatch(s, std::move(task), /*sheddable=*/false,
                        /*shed=*/nullptr) == PushResult::kAccepted)
        << "waited-on task pushed into a closed shard queue";
  }
  barrier.Wait();
}

void ShardedStreamServer::RunOnShard(int shard, const ShardFn& fn) const {
  RunOnShards({shard}, fn);
}

void ShardedStreamServer::RunOnAllShards(const ShardFn& fn) const {
  std::vector<int> all(shards_.size());
  for (size_t s = 0; s < all.size(); ++s) all[s] = static_cast<int>(s);
  RunOnShards(all, fn);
}

std::vector<std::vector<Item>> ShardedStreamServer::Route(
    const std::vector<Item>& items) const {
  std::vector<std::vector<Item>> routed(shards_.size());
  for (const Item& item : items) routed[ShardOf(item.key)].push_back(item);
  return routed;
}

void ShardedStreamServer::CountShed(Shard* shard, int64_t batches,
                                    int64_t items) {
  shard->batches_shed.fetch_add(batches, std::memory_order_relaxed);
  shard->items_shed.fetch_add(items, std::memory_order_relaxed);
}

int ShardedStreamServer::ShardOf(int key) const {
  return static_cast<int>(MixKey(static_cast<uint32_t>(key)) %
                          static_cast<uint32_t>(shards_.size()));
}

std::vector<StreamEvent> ShardedStreamServer::Observe(const Item& item) {
  const int shard = ShardOf(item.key);
  shards_[shard]->items_submitted.fetch_add(1, std::memory_order_relaxed);
  std::vector<StreamEvent> events;
  RunOnShard(shard, [&events, &item](int, ServerSlot& server) {
    events = server->Observe(item);
  });
  return events;
}

std::vector<StreamEvent> ShardedStreamServer::ObserveBatch(
    const std::vector<Item>& items) {
  // Route first: per-shard contiguous microbatches preserve arrival order
  // within a shard, which is all a shard's serving semantics depend on,
  // and let each shard drive its encoder through one GEMM per block
  // (StreamServer::ObserveBatch) instead of an item-at-a-time loop.
  const std::vector<std::vector<Item>> routed = Route(items);
  std::vector<int> active;
  for (size_t s = 0; s < routed.size(); ++s) {
    if (routed[s].empty()) continue;
    active.push_back(static_cast<int>(s));
    shards_[s]->items_submitted.fetch_add(
        static_cast<int64_t>(routed[s].size()), std::memory_order_relaxed);
  }
  std::vector<std::vector<StreamEvent>> shard_events(routed.size());
  RunOnShards(active, [&shard_events, &routed](int s, ServerSlot& server) {
    shard_events[s] = server->ObserveBatch(routed[s]);
  });
  return Concat(shard_events);
}

int64_t ShardedStreamServer::Submit(const std::vector<Item>& items) {
  std::vector<std::vector<Item>> routed = Route(items);
  int64_t shed_by_call = 0;
  for (size_t s = 0; s < routed.size(); ++s) {
    if (routed[s].empty()) continue;
    Shard& shard = *shards_[s];
    const int64_t count = static_cast<int64_t>(routed[s].size());
    shard.items_submitted.fetch_add(count, std::memory_order_relaxed);
    ShardTask task;
    task.items = std::move(routed[s]);
    std::vector<ShardTask> shed;
    if (Dispatch(static_cast<int>(s), std::move(task), /*sheddable=*/true,
                 &shed) != PushResult::kAccepted) {
      // kShedNewest, or kClosed (shutdown raced the producer): the batch
      // was never accepted, so it is counted as shed, not left untracked.
      CountShed(&shard, 1, count);
      shed_by_call += count;
    }
    for (const ShardTask& evicted : shed) {
      const int64_t evicted_items =
          static_cast<int64_t>(evicted.items.size());
      CountShed(&shard, 1, evicted_items);
      shed_by_call += evicted_items;
    }
  }
  return shed_by_call;
}

void ShardedStreamServer::Drain() {
  // A no-op task per shard: FIFO order means everything handed to a worker
  // before it — batches and queries alike — has run once it runs.
  RunOnAllShards([](int, ServerSlot&) {});
}

std::vector<StreamEvent> ShardedStreamServer::Flush() {
  std::vector<std::vector<StreamEvent>> shard_events(shards_.size());
  RunOnAllShards([&shard_events](int s, ServerSlot& server) {
    shard_events[s] = server->Flush();
  });
  return Concat(shard_events);
}

StreamServerStats ShardedStreamServer::MergeTransportCounters(
    const Shard& shard, StreamServerStats stats) {
  stats.items_submitted =
      shard.items_submitted.load(std::memory_order_relaxed);
  stats.batches_shed = shard.batches_shed.load(std::memory_order_relaxed);
  stats.items_shed = shard.items_shed.load(std::memory_order_relaxed);
  return stats;
}

StreamServerStats ShardedStreamServer::stats() const {
  std::vector<StreamServerStats> per_shard(shards_.size());
  RunOnAllShards([this, &per_shard](int s, ServerSlot& server) {
    per_shard[s] = MergeTransportCounters(*shards_[s], server->stats());
  });
  StreamServerStats merged;
  merged.windows_started = 0;
  for (const StreamServerStats& stats : per_shard) merged.Merge(stats);
  return merged;
}

StreamServerStats ShardedStreamServer::shard_stats(int shard) const {
  KVEC_CHECK_GE(shard, 0);
  KVEC_CHECK_LT(shard, num_shards());
  StreamServerStats stats;
  RunOnShard(shard, [this, &stats](int s, ServerSlot& server) {
    stats = MergeTransportCounters(*shards_[s], server->stats());
  });
  return stats;
}

int ShardedStreamServer::open_keys() const {
  std::vector<int> per_shard(shards_.size());
  RunOnAllShards([&per_shard](int s, ServerSlot& server) {
    per_shard[s] = server->open_keys();
  });
  int total = 0;
  for (int keys : per_shard) total += keys;
  return total;
}

int ShardedStreamServer::CompactAll() {
  int compacted = 0;
  for (int s = 0; s < num_shards(); ++s) {
    bool ran = false;
    RunOnShard(s, [&ran](int, ServerSlot& server) { ran = server->Compact(); });
    if (ran) ++compacted;
  }
  return compacted;
}

void ShardedStreamServer::AppendShardSections(
    int32_t section_id,
    const std::function<void(StreamServer&, BinaryWriter*)>& write,
    Checkpoint* checkpoint) const {
  // ONE SHARD AT A TIME: while shard s serializes, every other shard keeps
  // serving, so the pause per shard is just its own snapshot. Cross-shard
  // consistency is the caller's quiesce protocol, as documented.
  for (int s = 0; s < num_shards(); ++s) {
    BinaryWriter writer;
    writer.WriteInt32(s);
    RunOnShard(s, [&write, &writer](int, ServerSlot& server) {
      write(*server, &writer);
    });
    checkpoint->sections.push_back({section_id, writer.buffer()});
  }
}

bool ShardedStreamServer::ReadShardSections(
    const Checkpoint& checkpoint, int32_t section_id,
    const std::function<bool(int, BinaryReader*)>& read) const {
  std::vector<char> seen(shards_.size(), 0);
  for (const CheckpointSection& section : checkpoint.sections) {
    if (section.id != section_id) continue;
    BinaryReader reader(section.payload);
    const int32_t shard = reader.ReadInt32();
    if (!reader.ok() || shard < 0 || shard >= num_shards() ||
        seen[shard] != 0 || !read(shard, &reader)) {
      return false;
    }
    seen[shard] = 1;
  }
  for (char s : seen) {
    if (s == 0) return false;  // a shard's section is missing
  }
  return true;
}

Checkpoint ShardedStreamServer::BuildCheckpoint(
    bool stage_delta_baseline) const {
  Checkpoint checkpoint;
  BinaryWriter manifest;
  manifest.WriteInt32(num_shards());
  checkpoint.sections.push_back(
      {kCheckpointSectionShardManifest, manifest.buffer()});
  AppendShardSections(
      kCheckpointSectionShard,
      [stage_delta_baseline](StreamServer& server, BinaryWriter* writer) {
        server.Snapshot(writer);
        if (stage_delta_baseline) server.StageDeltaBaseline();
      },
      &checkpoint);
  return checkpoint;
}

bool ShardedStreamServer::StageFromCheckpoint(
    const Checkpoint& checkpoint,
    std::vector<std::unique_ptr<StreamServer>>* staged) {
  // Delta containers (version 2) never reach here; the chain loader
  // decodes them itself. A full restore must refuse them outright.
  if (checkpoint.version != kCheckpointFormatVersion) return false;
  const CheckpointSection* manifest =
      checkpoint.Find(kCheckpointSectionShardManifest);
  if (manifest == nullptr) return false;
  BinaryReader manifest_reader(manifest->payload);
  const int32_t num_shards = manifest_reader.ReadInt32();
  if (!manifest_reader.ok() ||
      num_shards != static_cast<int32_t>(shards_.size())) {
    return false;
  }

  // Stage every shard before swapping any in. Staging touches no live
  // shard state, so it runs on the calling thread in both modes.
  staged->clear();
  staged->resize(shards_.size());
  return ReadShardSections(
      checkpoint, kCheckpointSectionShard,
      [this, staged](int shard, BinaryReader* reader) {
        (*staged)[shard] =
            std::make_unique<StreamServer>(model_, config_.shard);
        return (*staged)[shard]->Restore(reader);
      });
}

void ShardedStreamServer::CommitStaged(
    std::vector<std::unique_ptr<StreamServer>>* staged) {
  // All-or-nothing commit. Re-baseline the transport counters to the
  // restored items_processed so the overload invariant (submitted ==
  // processed + shed) holds for the life of the restored server.
  std::vector<int64_t> processed(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    processed[s] = (*staged)[s]->stats().items_processed;
  }
  RunOnAllShards([this, staged, &processed](int s, ServerSlot& server) {
    server = std::move((*staged)[s]);
    shards_[s]->items_submitted.store(processed[s], std::memory_order_relaxed);
    shards_[s]->batches_shed.store(0, std::memory_order_relaxed);
    shards_[s]->items_shed.store(0, std::memory_order_relaxed);
  });
}

bool ShardedStreamServer::RestoreFromCheckpoint(const Checkpoint& checkpoint) {
  std::vector<std::unique_ptr<StreamServer>> staged;
  if (!StageFromCheckpoint(checkpoint, &staged)) return false;
  CommitStaged(&staged);
  return true;
}

std::string ShardedStreamServer::EncodeCheckpoint() const {
  return CheckpointEncode(BuildCheckpoint());
}

bool ShardedStreamServer::RestoreCheckpoint(const std::string& bytes) {
  Checkpoint checkpoint;
  return CheckpointDecode(bytes, &checkpoint) &&
         RestoreFromCheckpoint(checkpoint);
}

bool ShardedStreamServer::SaveCheckpoint(const std::string& path) const {
  return CheckpointSave(path, BuildCheckpoint());
}

bool ShardedStreamServer::LoadCheckpoint(const std::string& path) {
  Checkpoint checkpoint;
  return CheckpointLoad(path, &checkpoint) &&
         RestoreFromCheckpoint(checkpoint);
}

std::string ShardedStreamServer::DeltaPath(const std::string& base_path,
                                           int64_t seq) {
  return base_path + ".delta." + std::to_string(seq);
}

bool ShardedStreamServer::CheckpointIncremental(
    const std::string& base_path, int rebase_every,
    IncrementalCheckpointState* state) {
  const bool rebase =
      state->base_fingerprint == 0 ||
      (rebase_every > 0 && state->deltas_written >= rebase_every);

  if (rebase) {
    // Full base. Snapshot and baseline-staging happen in ONE task per
    // shard, so the staged dirty-clear is atomic with the bytes.
    const Checkpoint checkpoint =
        BuildCheckpoint(/*stage_delta_baseline=*/true);
    // Unlink the stale chain newest-first BEFORE replacing the base:
    // every crash point along the way leaves a loadable chain (old base
    // plus a consecutive delta prefix, then the old base alone, then —
    // after the atomic rename — the new base alone).
    for (int64_t seq = state->deltas_written; seq >= 1; --seq) {
      std::remove(DeltaPath(base_path, seq).c_str());
    }
    const std::string bytes = CheckpointEncode(checkpoint);
    // A failed base write leaves the old base on disk (loadable) but the
    // old deltas already unlinked — zeroing the fingerprint forces the
    // next call back into this branch instead of appending deltas to a
    // chain whose middle links are gone. The dirty baseline stays
    // staged-only, so no churn is lost either way.
    if (KVEC_FAULT_POINT("checkpoint.save") ||
        !AtomicWriteFile(base_path, bytes)) {
      state->base_fingerprint = 0;
      return false;
    }
    state->base_fingerprint = CheckpointFingerprint(bytes);
    state->prev_fingerprint = state->base_fingerprint;
    state->deltas_written = 0;
    RunOnAllShards(
        [](int, ServerSlot& server) { server->CommitDeltaBaseline(); });
    return true;
  }

  // Delta link. SnapshotDelta stages each shard's dirty-clear itself.
  Checkpoint delta;
  delta.version = kCheckpointDeltaFormatVersion;
  const int64_t seq = state->deltas_written + 1;
  {
    BinaryWriter manifest;
    manifest.WriteInt64(static_cast<int64_t>(state->base_fingerprint));
    manifest.WriteInt64(static_cast<int64_t>(state->prev_fingerprint));
    manifest.WriteInt64(seq);
    manifest.WriteInt32(num_shards());
    delta.sections.push_back(
        {kCheckpointSectionDeltaManifest, manifest.buffer()});
  }
  AppendShardSections(
      kCheckpointSectionShardDelta,
      [](StreamServer& server, BinaryWriter* writer) {
        server.SnapshotDelta(writer);
      },
      &delta);
  const std::string bytes = CheckpointEncode(delta);
  // Failed delta write: no baseline commit, so every dirty bit survives
  // and the next delta re-carries this one's churn; the chain on disk is
  // untouched and stays loadable. Tests force this path here.
  if (KVEC_FAULT_POINT("checkpoint.delta")) return false;
  if (!AtomicWriteFile(DeltaPath(base_path, seq), bytes)) return false;
  state->prev_fingerprint = CheckpointFingerprint(bytes);
  state->deltas_written = seq;
  RunOnAllShards(
      [](int, ServerSlot& server) { server->CommitDeltaBaseline(); });
  return true;
}

bool ShardedStreamServer::RestoreFromCheckpointChain(
    const std::string& base_path, IncrementalCheckpointState* state) {
  std::string base_bytes;
  if (!ReadFile(base_path, &base_bytes)) return false;
  Checkpoint base;
  if (!CheckpointDecode(base_bytes, &base)) return false;
  // The chain root must be a full checkpoint; a delta file at the base
  // path is a mix-up, not a base.
  if (base.version != kCheckpointFormatVersion) return false;
  std::vector<std::unique_ptr<StreamServer>> staged;
  if (!StageFromCheckpoint(base, &staged)) return false;

  const uint64_t base_fp = CheckpointFingerprint(base_bytes);
  uint64_t prev_fp = base_fp;
  int64_t seq = 1;
  for (;; ++seq) {
    std::string delta_bytes;
    if (!ReadFile(DeltaPath(base_path, seq), &delta_bytes)) {
      break;  // end of chain
    }
    Checkpoint delta;
    if (!CheckpointDecode(delta_bytes, &delta)) return false;
    if (delta.version != kCheckpointDeltaFormatVersion) return false;
    const CheckpointSection* manifest =
        delta.Find(kCheckpointSectionDeltaManifest);
    if (manifest == nullptr) return false;
    BinaryReader manifest_reader(manifest->payload);
    const uint64_t stored_base =
        static_cast<uint64_t>(manifest_reader.ReadInt64());
    const uint64_t stored_prev =
        static_cast<uint64_t>(manifest_reader.ReadInt64());
    const int64_t stored_seq = manifest_reader.ReadInt64();
    const int32_t num_shards = manifest_reader.ReadInt32();
    // Linkage: cut against THIS base, directly after THIS link, at THIS
    // position. Anything else — a delta from another chain, a reordered
    // or re-used link — fails the whole load.
    if (!manifest_reader.ok() || stored_base != base_fp ||
        stored_prev != prev_fp || stored_seq != seq ||
        num_shards != static_cast<int32_t>(shards_.size())) {
      return false;
    }
    if (!ReadShardSections(delta, kCheckpointSectionShardDelta,
                           [&staged](int shard, BinaryReader* reader) {
                             return staged[shard]->ApplyDelta(reader);
                           })) {
      return false;
    }
    prev_fp = CheckpointFingerprint(delta_bytes);
  }

  CommitStaged(&staged);
  if (state != nullptr) {
    // The caller intends to keep appending to this chain: re-arm dirty
    // tracking at the restored state (stage+commit in one task per
    // shard = empty dirty set, baselines = now). Without `state` the
    // load is a plain warm restart and tracking stays disarmed — a dirty
    // map on a server that never checkpoints again would only grow.
    RunOnAllShards([](int, ServerSlot& server) {
      server->StageDeltaBaseline();
      server->CommitDeltaBaseline();
    });
    state->base_fingerprint = base_fp;
    state->prev_fingerprint = prev_fp;
    state->deltas_written = seq - 1;
  }
  return true;
}

}  // namespace kvec
