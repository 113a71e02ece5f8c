#include "core/stream_server.h"

#include <algorithm>

#include "tensor/tensor.h"
#include "util/check.h"
#include "util/fault_injection.h"

namespace kvec {

namespace {

// Serving-index records (key, last_seen), ascending by key: every open key
// in a full snapshot, the dirty open ones in a delta.
using OpenKeyRecords = std::vector<std::pair<int, int64_t>>;

void WriteOpenKeys(BinaryWriter* writer, const OpenKeyRecords& records) {
  writer->WriteInt32(static_cast<int32_t>(records.size()));
  for (const auto& [key, last_seen] : records) {
    writer->WriteInt32(key);
    writer->WriteInt64(last_seen);
  }
}

// Requires strictly ascending keys (the canonical encoding; a duplicate or
// reordered record is corruption) and last_seen in [0, position].
bool ReadOpenKeys(BinaryReader* reader, int64_t position,
                  OpenKeyRecords* records) {
  const int32_t count = reader->ReadInt32();
  if (!reader->ok() || count < 0 ||
      static_cast<size_t>(count) > reader->remaining() / 8) {
    return false;
  }
  records->reserve(count);
  for (int32_t i = 0; i < count; ++i) {
    const int key = reader->ReadInt32();
    const int64_t last_seen = reader->ReadInt64();
    if (!reader->ok() || (i > 0 && key <= records->back().first) ||
        last_seen < 0 || last_seen > position) {
      return false;
    }
    records->emplace_back(key, last_seen);
  }
  return true;
}

}  // namespace

void StreamServerStats::Merge(const StreamServerStats& other) {
  items_processed += other.items_processed;
  sequences_classified += other.sequences_classified;
  policy_halts += other.policy_halts;
  idle_timeouts += other.idle_timeouts;
  capacity_evictions += other.capacity_evictions;
  rotation_classifications += other.rotation_classifications;
  flush_classifications += other.flush_classifications;
  windows_started += other.windows_started;
  if (class_counts.size() < other.class_counts.size()) {
    class_counts.resize(other.class_counts.size(), 0);
  }
  for (size_t c = 0; c < other.class_counts.size(); ++c) {
    class_counts[c] += other.class_counts[c];
  }
  items_submitted += other.items_submitted;
  batches_shed += other.batches_shed;
  items_shed += other.items_shed;
  bytes_resident += other.bytes_resident;
  pool_blocks += other.pool_blocks;
  scratch_high_water += other.scratch_high_water;
  compactions += other.compactions;
}

StreamServer::StreamServer(const KvecModel& model,
                           const StreamServerConfig& config)
    : model_(model),
      config_(config),
      pool_(std::make_unique<ShardPool>()),
      engine_(std::make_unique<OnlineClassifier>(model, pool_->resource())),
      index_(std::make_unique<KeyIndex>(pool_->resource())) {
  KVEC_CHECK_GT(config_.max_window_items, 0);
  KVEC_CHECK_GT(config_.idle_timeout, 0);
  KVEC_CHECK_GT(config_.idle_check_interval, 0);
  KVEC_CHECK_GT(config_.max_open_keys, 0);
  stats_.class_counts.assign(model.config().spec.num_classes, 0);
}

void StreamServer::RecordEvent(const StreamEvent& event) {
  ++stats_.sequences_classified;
  if (event.predicted_label >= 0 &&
      event.predicted_label < static_cast<int>(stats_.class_counts.size())) {
    ++stats_.class_counts[event.predicted_label];
  }
  switch (event.cause) {
    case StreamEvent::Cause::kPolicyHalt:
      ++stats_.policy_halts;
      break;
    case StreamEvent::Cause::kIdleTimeout:
      ++stats_.idle_timeouts;
      break;
    case StreamEvent::Cause::kCapacityEviction:
      ++stats_.capacity_evictions;
      break;
    case StreamEvent::Cause::kWindowRotation:
      ++stats_.rotation_classifications;
      break;
    case StreamEvent::Cause::kFlush:
      ++stats_.flush_classifications;
      break;
  }
}

void StreamServer::CloseKey(OpenKeyMap::iterator it) {
  index_->by_last_seen.erase({it->second.last_seen, it->first});
  index_->open.erase(it);
}

void StreamServer::CloseKey(int key) {
  auto it = index_->open.find(key);
  if (it != index_->open.end()) CloseKey(it);
}

void StreamServer::ForceClose(int key, StreamEvent::Cause cause,
                              std::vector<StreamEvent>* events) {
  auto it = index_->open.find(key);
  if (it == index_->open.end()) return;
  // ForceClassify mutates the key's engine state (halted/predicted) and
  // the close drops it from the serving index — both must reach the next
  // delta (as an engine upsert and a tombstone respectively).
  MarkDirty(key);
  StreamEvent event;
  event.key = key;
  event.cause = cause;
  event.observed_items = engine_->ObservedItems(key);
  event.predicted_label = engine_->ForceClassify(key, &event.confidence);
  CloseKey(it);
  RecordEvent(event);
  events->push_back(event);
}

void StreamServer::RotateWindow(std::vector<StreamEvent>* events) {
  // Close everything still open under the old engine, then rebuild it.
  std::vector<int> keys;
  keys.reserve(index_->open.size());
  for (const auto& [key, state] : index_->open) keys.push_back(key);
  for (int key : keys) {
    ForceClose(key, StreamEvent::Cause::kWindowRotation, events);
  }
  engine_ = std::make_unique<OnlineClassifier>(model_, pool_->resource());
  window_items_ = 0;
  ++stats_.windows_started;
}

void StreamServer::EvictIdle(std::vector<StreamEvent>* events) {
  // Oldest-first walk of the recency index: stop at the first key still
  // inside its idle window. O(evicted), not O(open keys).
  while (!index_->by_last_seen.empty() &&
         position_ - index_->by_last_seen.begin()->first >= config_.idle_timeout) {
    ForceClose(index_->by_last_seen.begin()->second, StreamEvent::Cause::kIdleTimeout,
               events);
  }
}

void StreamServer::Bookkeep(const Item& item, const OnlineDecision& decision,
                            std::vector<StreamEvent>* events) {
  ++position_;
  ++window_items_;
  ++stats_.items_processed;
  // Every observed item mutates its key's engine state (tracker lists,
  // per-key position, fusion step) even when the key is already halted.
  MarkDirty(item.key);

  if (decision.already_halted) {
    // The engine still tracks the item (its visibility matters for other
    // keys), but the key's verdict was already emitted. The idle sweep
    // below must still run: these items advance the clock like any other.
  } else if (decision.halted_now) {
    CloseKey(item.key);
    StreamEvent event;
    event.key = item.key;
    event.predicted_label = decision.predicted_label;
    event.observed_items = decision.observed_items;
    event.confidence = decision.confidence;
    event.cause = StreamEvent::Cause::kPolicyHalt;
    RecordEvent(event);
    events->push_back(event);
  } else {
    auto [it, inserted] = index_->open.try_emplace(item.key);
    if (!inserted) index_->by_last_seen.erase({it->second.last_seen, item.key});
    it->second.last_seen = position_;
    index_->by_last_seen.insert({position_, item.key});
    if (static_cast<int>(index_->open.size()) > config_.max_open_keys) {
      // Evict the least recently active key: the front of the recency index.
      ForceClose(index_->by_last_seen.begin()->second,
                 StreamEvent::Cause::kCapacityEviction, events);
    }
  }

  if (position_ % config_.idle_check_interval == 0) EvictIdle(events);
}

std::vector<StreamEvent> StreamServer::Observe(const Item& item) {
  // Belt and braces with OnlineClassifier's own guard: everything the
  // serving loop does (engine steps, forced closes, rotations) runs tapeless.
  InferenceMode inference_guard;
  std::vector<StreamEvent> events;
  if (window_items_ >= config_.max_window_items) RotateWindow(&events);

  OnlineDecision decision = engine_->Observe(item);
  Bookkeep(item, decision, &events);
  MaybeCompact(1);
  return events;
}

std::vector<StreamEvent> StreamServer::ObserveBatch(
    const std::vector<Item>& items) {
  InferenceMode inference_guard;
  std::vector<StreamEvent> events;
  const int total = static_cast<int>(items.size());
  const int embed = engine_->embed_dim();
  std::vector<float> rows;
  int begin = 0;
  while (begin < total) {
    if (window_items_ >= config_.max_window_items) RotateWindow(&events);
    // Encode up to the next rotation boundary in one microbatch. Encoding
    // ahead of the per-item bookkeeping below is safe: the encoder stage
    // depends only on the item stream (never on halts or evictions), and
    // rotations — which do reset the encoder — land exactly on chunk
    // boundaries because the window clock ticks once per item.
    const int chunk = std::min(total - begin,
                               config_.max_window_items - window_items_);
    engine_->EncodeBatch(items.data() + begin, chunk, &rows);
    for (int i = 0; i < chunk; ++i) {
      const Item& item = items[begin + i];
      OnlineDecision decision = engine_->DecideObserved(
          item.key, rows.data() + static_cast<size_t>(i) * embed);
      Bookkeep(item, decision, &events);
    }
    // The microbatch is drained: rewind the encoder's scratch arena so a
    // rare giant batch does not pin its high-water reservation forever.
    engine_->ResetEncodeScratch();
    MaybeCompact(chunk);
    begin += chunk;
  }
  return events;
}

bool StreamServer::Compact() {
  // Failable point: tests suppress the heuristic here, or stall a worker
  // mid-compaction to compose with the overload policies.
  if (KVEC_FAULT_POINT("compaction.run")) return false;
  auto pool = std::make_unique<ShardPool>();
  // Order matters. (1) Move the engine's state into the fresh pool while
  // both pools are alive; (2) rebuild the open-key index (uses-allocator
  // copies land in the fresh pool); (3) drop the old index, then (4) the
  // old pool — destruction of pool-backed containers must precede their
  // pool's.
  engine_->Repool(pool->resource());
  auto index = std::make_unique<KeyIndex>(pool->resource());
  for (const auto& entry : index_->open) index->open.insert(entry);
  for (const auto& entry : index_->by_last_seen) {
    index->by_last_seen.insert(entry);
  }
  index_ = std::move(index);
  pool_ = std::move(pool);
  ++stats_.compactions;
  items_since_compaction_check_ = 0;
  return true;
}

void StreamServer::MaybeCompact(int items) {
  if (config_.compaction_check_interval <= 0) return;
  items_since_compaction_check_ += items;
  if (items_since_compaction_check_ < config_.compaction_check_interval) {
    return;
  }
  items_since_compaction_check_ = 0;
  if (static_cast<int64_t>(pool_->bytes_resident()) <
      config_.compaction_min_bytes) {
    return;
  }
  if (pool_->fragmentation() < config_.compaction_fragmentation_threshold) {
    return;
  }
  Compact();
}

void StreamServer::RefreshMemoryStats() const {
  stats_.bytes_resident = static_cast<int64_t>(pool_->bytes_resident() +
                                               engine_->encoder_resident_bytes());
  stats_.pool_blocks = static_cast<int64_t>(pool_->blocks_resident());
  // High-water over the server's lifetime, not the current engine's — a
  // window rotation replaces the engine (and its scratch arena) wholesale.
  stats_.scratch_high_water =
      std::max(stats_.scratch_high_water,
               static_cast<int64_t>(engine_->scratch_high_water()));
}

const StreamServerStats& StreamServer::stats() const {
  RefreshMemoryStats();
  return stats_;
}

void StreamServer::WriteHeader(BinaryWriter* writer) const {
  // Config echo: a checkpoint must never apply to a server with different
  // serving semantics.
  writer->WriteInt32(config_.max_window_items);
  writer->WriteInt32(config_.idle_timeout);
  writer->WriteInt32(config_.idle_check_interval);
  writer->WriteInt32(config_.max_open_keys);

  writer->WriteInt64(position_);
  writer->WriteInt32(window_items_);

  writer->WriteInt64(stats_.items_processed);
  writer->WriteInt64(stats_.sequences_classified);
  writer->WriteInt64(stats_.policy_halts);
  writer->WriteInt64(stats_.idle_timeouts);
  writer->WriteInt64(stats_.capacity_evictions);
  writer->WriteInt64(stats_.rotation_classifications);
  writer->WriteInt64(stats_.flush_classifications);
  writer->WriteInt32(stats_.windows_started);
  writer->WriteInt32(static_cast<int32_t>(stats_.class_counts.size()));
  for (int64_t count : stats_.class_counts) writer->WriteInt64(count);
  // The transport-layer counters (items_submitted / batches_shed /
  // items_shed) are intentionally absent: they belong to the sharded
  // ingest layer's process lifetime, not to serving state, and leaving
  // them out keeps the v1 snapshot layout byte-identical.
}

bool StreamServer::ReadHeader(BinaryReader* reader, Header* header) const {
  StreamServerConfig& config = header->config;
  config.max_window_items = reader->ReadInt32();
  config.idle_timeout = reader->ReadInt32();
  config.idle_check_interval = reader->ReadInt32();
  config.max_open_keys = reader->ReadInt32();

  header->position = reader->ReadInt64();
  header->window_items = reader->ReadInt32();

  StreamServerStats& stats = header->stats;
  stats.items_processed = reader->ReadInt64();
  stats.sequences_classified = reader->ReadInt64();
  stats.policy_halts = reader->ReadInt64();
  stats.idle_timeouts = reader->ReadInt64();
  stats.capacity_evictions = reader->ReadInt64();
  stats.rotation_classifications = reader->ReadInt64();
  stats.flush_classifications = reader->ReadInt64();
  stats.windows_started = reader->ReadInt32();
  const int32_t num_classes = reader->ReadInt32();
  if (!reader->ok() || num_classes != model_.config().spec.num_classes) {
    return false;
  }
  stats.class_counts.resize(num_classes);
  for (int64_t& count : stats.class_counts) count = reader->ReadInt64();
  return reader->ok() && header->position >= 0 && header->window_items >= 0 &&
         header->window_items <= config.max_window_items;
}

void StreamServer::AdoptHeader(Header header) {
  // The compaction knobs and counters and the memory gauges are
  // process-local (never serialized; see StreamServerConfig): a restore
  // keeps the live values.
  header.config.compaction_check_interval = config_.compaction_check_interval;
  header.config.compaction_fragmentation_threshold =
      config_.compaction_fragmentation_threshold;
  header.config.compaction_min_bytes = config_.compaction_min_bytes;
  header.stats.compactions = stats_.compactions;
  header.stats.scratch_high_water = stats_.scratch_high_water;
  header.stats.bytes_resident = stats_.bytes_resident;
  header.stats.pool_blocks = stats_.pool_blocks;

  config_ = header.config;
  position_ = header.position;
  window_items_ = header.window_items;
  stats_ = std::move(header.stats);
  items_since_compaction_check_ = 0;
}

void StreamServer::Snapshot(BinaryWriter* writer) const {
  WriteHeader(writer);
  OpenKeyRecords open;
  open.reserve(index_->open.size());
  for (const auto& [key, state] : index_->open) {  // std::map: ascending
    open.emplace_back(key, state.last_seen);
  }
  WriteOpenKeys(writer, open);
  // Engine last: Restore stages everything above in temporaries and only
  // builds the (fresh) engine once the bookkeeping sections parsed.
  engine_->Snapshot(writer);
}

bool StreamServer::Restore(BinaryReader* reader) {
  Header header;
  OpenKeyRecords open;
  if (!ReadHeader(reader, &header) || header.config.max_window_items <= 0 ||
      header.config.idle_timeout <= 0 ||
      header.config.idle_check_interval <= 0 ||
      header.config.max_open_keys <= 0 ||
      !ReadOpenKeys(reader, header.position, &open) ||
      open.size() > static_cast<size_t>(header.config.max_open_keys)) {
    return false;
  }

  // Staged into the live shard pool (the pool just grows while the old
  // state still exists; a failed restore leaves only recyclable pool
  // space behind, which the next compaction reclaims).
  auto index = std::make_unique<KeyIndex>(pool_->resource());
  for (const auto& [key, last_seen] : open) {
    index->open.emplace_hint(index->open.end(), key, OpenKey{last_seen});
    index->by_last_seen.insert({last_seen, key});
  }

  // A fresh engine keeps the current one intact if the engine section is
  // the part that turns out to be corrupt.
  auto engine = std::make_unique<OnlineClassifier>(model_, pool_->resource());
  if (!engine->Restore(reader)) return false;
  // The snapshot is the last thing in its section: bytes after it are
  // corruption the container framing cannot see. Checked before the
  // commit below so a tainted checkpoint leaves *this untouched.
  if (!reader->AtEnd()) return false;

  AdoptHeader(std::move(header));
  index_ = std::move(index);
  engine_ = std::move(engine);
  // A full restore invalidates any delta baseline: the restored state is a
  // new world. The chain loader re-arms tracking after its commit.
  dirty_tracking_ = false;
  dirty_keys_.clear();
  pending_baseline_ = false;
  return true;
}

void StreamServer::StageDeltaBaseline() {
  pending_epoch_ = dirty_epoch_++;
  pending_engine_items_ = engine_->num_items_observed();
  pending_windows_started_ = stats_.windows_started;
  pending_baseline_ = true;
}

void StreamServer::CommitDeltaBaseline() {
  if (!pending_baseline_) return;
  for (auto it = dirty_keys_.begin(); it != dirty_keys_.end();) {
    // Keys re-dirtied after the staged snapshot carry a later epoch and
    // must survive into the next delta.
    if (it->second <= pending_epoch_) {
      it = dirty_keys_.erase(it);
    } else {
      ++it;
    }
  }
  base_engine_items_ = pending_engine_items_;
  base_windows_started_ = pending_windows_started_;
  pending_baseline_ = false;
  dirty_tracking_ = true;
}

void StreamServer::SnapshotDelta(BinaryWriter* writer) {
  StageDeltaBaseline();

  std::vector<int> dirty_sorted;
  dirty_sorted.reserve(dirty_keys_.size());
  for (const auto& [key, epoch] : dirty_keys_) dirty_sorted.push_back(key);
  std::sort(dirty_sorted.begin(), dirty_sorted.end());

  // The header travels whole (a handful of scalars; the churn-proportional
  // savings are in the per-key payloads below).
  WriteHeader(writer);

  // When the engine was rebuilt since the base (window rotation), the
  // receiver rebuilds a fresh engine too and the encoder tail starts at 0.
  const bool engine_reset = stats_.windows_started != base_windows_started_;
  writer->WriteInt32(engine_reset ? 1 : 0);
  const int base_items = engine_reset ? 0 : base_engine_items_;

  // Serving-index upserts for dirty keys still open, then tombstones for
  // dirty keys no longer open (closed, evicted, or rotated away since the
  // base); both ascending.
  OpenKeyRecords upserts;
  std::vector<int> tombstones;
  for (int key : dirty_sorted) {
    auto it = index_->open.find(key);
    if (it != index_->open.end()) {
      upserts.emplace_back(key, it->second.last_seen);
    } else {
      tombstones.push_back(key);
    }
  }
  WriteOpenKeys(writer, upserts);
  writer->WriteInt32(static_cast<int32_t>(tombstones.size()));
  for (int key : tombstones) writer->WriteInt32(key);

  engine_->SnapshotDelta(writer, dirty_sorted, base_items);
}

bool StreamServer::ApplyDelta(BinaryReader* reader) {
  Header header;
  if (!ReadHeader(reader, &header) ||
      header.config.max_window_items != config_.max_window_items ||
      header.config.idle_timeout != config_.idle_timeout ||
      header.config.idle_check_interval != config_.idle_check_interval ||
      header.config.max_open_keys != config_.max_open_keys ||
      header.position < position_ ||
      header.stats.windows_started < stats_.windows_started) {
    return false;
  }

  const int engine_reset = reader->ReadInt32();
  if (!reader->ok() || (engine_reset != 0 && engine_reset != 1)) return false;

  OpenKeyRecords upserts;
  if (!ReadOpenKeys(reader, header.position, &upserts)) return false;
  for (const auto& [key, last_seen] : upserts) {
    auto [it, inserted] = index_->open.try_emplace(key);
    if (!inserted) {
      index_->by_last_seen.erase({it->second.last_seen, key});
    }
    it->second.last_seen = last_seen;
    index_->by_last_seen.insert({last_seen, key});
  }

  const int32_t num_tombstones = reader->ReadInt32();
  if (!reader->ok() || num_tombstones < 0 ||
      static_cast<size_t>(num_tombstones) > reader->remaining() / 8) {
    return false;
  }
  int prev_key = -1;
  for (int32_t i = 0; i < num_tombstones; ++i) {
    const int key = reader->ReadInt32();
    // Strictly ascending is the canonical encoding; a duplicate (or
    // reordered) tombstone list is corruption, not a double-close.
    if (!reader->ok() || (i > 0 && key <= prev_key)) return false;
    prev_key = key;
    CloseKey(key);
  }
  if (static_cast<int>(index_->open.size()) > config_.max_open_keys) {
    return false;
  }

  if (engine_reset != 0) {
    // Mirrors RotateWindow on the writer: a fresh engine over the live
    // pool, whose delta then carries the whole young window from item 0.
    engine_ = std::make_unique<OnlineClassifier>(model_, pool_->resource());
  }
  if (!engine_->ApplyDelta(reader)) return false;
  if (!reader->AtEnd()) return false;

  AdoptHeader(std::move(header));
  return true;
}

Checkpoint StreamServer::BuildCheckpoint() const {
  Checkpoint checkpoint;
  BinaryWriter writer;
  Snapshot(&writer);
  checkpoint.sections.push_back(
      {kCheckpointSectionStreamServer, writer.buffer()});
  return checkpoint;
}

bool StreamServer::RestoreFromCheckpoint(const Checkpoint& checkpoint) {
  // Delta containers (version 2) carry partial state and only make sense
  // relative to a staged base; a full restore must refuse them.
  if (checkpoint.version != kCheckpointFormatVersion) return false;
  const CheckpointSection* section =
      checkpoint.Find(kCheckpointSectionStreamServer);
  if (section == nullptr) return false;
  BinaryReader reader(section->payload);
  return Restore(&reader);
}

std::string StreamServer::EncodeCheckpoint() const {
  return CheckpointEncode(BuildCheckpoint());
}

bool StreamServer::RestoreCheckpoint(const std::string& bytes) {
  Checkpoint checkpoint;
  return CheckpointDecode(bytes, &checkpoint) &&
         RestoreFromCheckpoint(checkpoint);
}

bool StreamServer::SaveCheckpoint(const std::string& path) const {
  return CheckpointSave(path, BuildCheckpoint());
}

bool StreamServer::LoadCheckpoint(const std::string& path) {
  Checkpoint checkpoint;
  return CheckpointLoad(path, &checkpoint) &&
         RestoreFromCheckpoint(checkpoint);
}

std::vector<StreamEvent> StreamServer::Flush() {
  std::vector<StreamEvent> events;
  std::vector<int> keys;
  keys.reserve(index_->open.size());
  for (const auto& [key, state] : index_->open) keys.push_back(key);
  for (int key : keys) ForceClose(key, StreamEvent::Cause::kFlush, &events);
  return events;
}

}  // namespace kvec
