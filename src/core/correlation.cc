#include "core/correlation.h"

#include <algorithm>

#include "tensor/ops.h"
#include "util/check.h"

namespace kvec {

CorrelationTracker::CorrelationTracker(const CorrelationOptions& options,
                                       std::pmr::memory_resource* memory)
    : options_(options),
      memory_(memory),
      state_(std::make_unique<State>(memory)) {
  KVEC_CHECK_GE(options_.session_field, 0);
  KVEC_CHECK_GT(options_.value_correlation_window, 0);
}

void CorrelationTracker::Repool(std::pmr::memory_resource* memory) {
  auto fresh = std::make_unique<State>(memory);
  fresh->key_items.reserve(state_->key_items.size());
  for (const auto& [key, items] : state_->key_items) {
    fresh->key_items.emplace(key, items);
  }
  fresh->open_sessions.reserve(state_->open_sessions.size());
  for (const auto& [key, session] : state_->open_sessions) {
    fresh->open_sessions.emplace(key, session);
  }
  fresh->by_value.reserve(state_->by_value.size());
  for (const auto& [value, bucket] : state_->by_value) {
    fresh->by_value.emplace(value, bucket);
  }
  // Destroy the old containers while their resource is still alive, then
  // adopt the new one.
  state_ = std::move(fresh);
  memory_ = memory;
}

void CorrelationTracker::AppendValueMatches(int own_key, int session_value,
                                            int index,
                                            std::vector<int>* visible) const {
  auto bucket_it = state_->by_value.find(session_value);
  if (bucket_it == state_->by_value.end()) return;
  const std::pmr::map<int, int>& bucket = bucket_it->second;

  std::vector<int> cross;  // value-correlated items of *other* keys
  // Newest-first walk; every session past the first stale one is staler
  // still (the bucket is ordered by last_index), so the walk touches only
  // sessions inside the window.
  for (auto it = bucket.rbegin(); it != bucket.rend(); ++it) {
    if (index - it->first > options_.value_correlation_window) break;
    if (it->second == own_key) continue;  // same key is key correlation
    const OpenSession& session = state_->open_sessions.at(it->second);
    cross.insert(cross.end(), session.item_indices.begin(),
                 session.item_indices.end());
  }
  // Canonical ascending order (the pre-index tracker emitted sessions in
  // key order; sorting makes the order deterministic and keeps the capped
  // and uncapped paths consistent).
  std::sort(cross.begin(), cross.end());
  if (options_.max_value_correlations > 0 &&
      static_cast<int>(cross.size()) > options_.max_value_correlations) {
    // Keep only the most recent matches (largest stream positions).
    cross.erase(cross.begin(), cross.end() - options_.max_value_correlations);
  }
  visible->insert(visible->end(), cross.begin(), cross.end());
}

std::vector<int> CorrelationTracker::ObserveItem(const Item& item) {
  const int index = next_index_++;
  KVEC_CHECK_LT(options_.session_field,
                static_cast<int>(item.value.size()));
  const int session_value = item.value[options_.session_field];

  std::vector<int> visible;

  if (options_.use_key_correlation) {
    auto it = state_->key_items.find(item.key);
    if (it != state_->key_items.end()) {
      visible.insert(visible.end(), it->second.begin(), it->second.end());
    }
  }

  if (options_.use_value_correlation) {
    AppendValueMatches(item.key, session_value, index, &visible);
  }

  // Update this key's open session *after* computing visibility so an item
  // never reports itself.
  state_->key_items[item.key].push_back(index);
  OpenSession& session = state_->open_sessions[item.key];
  const bool session_rotates =
      session.item_indices.empty() || session.session_value != session_value;
  // Reposition the session in the inverted index: drop the stale
  // (last_index -> key) entry — from the old value's bucket if the session
  // value changed — and re-insert under the new recency.
  Unindex(state_.get(), session);
  if (session_rotates) {
    session.session_value = session_value;
    session.item_indices.clear();
  }
  session.item_indices.push_back(index);
  session.last_index = index;
  Index(state_.get(), item.key, session);

  return visible;
}

namespace {

// Reads one list of stream positions; each must be one the tracker had
// assigned before `next_index`.
bool ReadIndices(BinaryReader* reader, int next_index, std::vector<int>* out) {
  *out = reader->ReadIntVector();
  if (!reader->ok()) return false;
  for (int index : *out) {
    if (index < 0 || index >= next_index) return false;
  }
  return true;
}

}  // namespace

void CorrelationTracker::WriteSession(BinaryWriter* writer,
                                      const OpenSession& session) {
  writer->WriteInt32(session.session_value);
  writer->WriteInt32(session.last_index);
  writer->WriteInts(session.item_indices.data(), session.item_indices.size());
}

bool CorrelationTracker::ReadSession(BinaryReader* reader, int next_index,
                                     OpenSession* session) {
  session->session_value = reader->ReadInt32();
  session->last_index = reader->ReadInt32();
  std::vector<int> indices;
  if (!ReadIndices(reader, next_index, &indices) ||
      session->last_index < -1 || session->last_index >= next_index) {
    return false;
  }
  session->item_indices.assign(indices.begin(), indices.end());
  return true;
}

void CorrelationTracker::Unindex(State* state, const OpenSession& session) {
  if (session.last_index < 0) return;
  auto bucket = state->by_value.find(session.session_value);
  if (bucket == state->by_value.end()) return;
  bucket->second.erase(session.last_index);
  if (bucket->second.empty()) state->by_value.erase(bucket);
}

bool CorrelationTracker::Index(State* state, int key,
                               const OpenSession& session) {
  return session.last_index < 0 ||
         state->by_value[session.session_value]
             .emplace(session.last_index, key)
             .second;
}

void CorrelationTracker::Snapshot(BinaryWriter* writer) const {
  // Echo the options so a checkpoint can never be restored into a tracker
  // with different correlation semantics.
  writer->WriteInt32(options_.use_key_correlation ? 1 : 0);
  writer->WriteInt32(options_.use_value_correlation ? 1 : 0);
  writer->WriteInt32(options_.value_correlation_window);
  writer->WriteInt32(options_.session_field);
  writer->WriteInt32(options_.max_value_correlations);
  writer->WriteInt32(next_index_);

  // Key-sorted iteration makes the byte stream canonical (unordered_map
  // order depends on insertion history, which a restored tracker does not
  // share).
  std::vector<int> keys;
  keys.reserve(state_->key_items.size());
  for (const auto& [key, items] : state_->key_items) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  writer->WriteInt32(static_cast<int32_t>(keys.size()));
  for (int key : keys) {
    const auto& items = state_->key_items.at(key);
    writer->WriteInt32(key);
    writer->WriteInts(items.data(), items.size());
  }

  keys.clear();
  for (const auto& [key, session] : state_->open_sessions) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  writer->WriteInt32(static_cast<int32_t>(keys.size()));
  for (int key : keys) {
    writer->WriteInt32(key);
    WriteSession(writer, state_->open_sessions.at(key));
  }
}

bool CorrelationTracker::Restore(BinaryReader* reader) {
  // One tagged int32 costs 8 bytes: bounds every count below so a corrupted
  // prefix cannot spin a long loop over an already-failed reader.
  const auto plausible_count = [reader](int32_t count) {
    return count >= 0 && static_cast<size_t>(count) <= reader->remaining() / 8;
  };

  const bool use_key = reader->ReadInt32() != 0;
  const bool use_value = reader->ReadInt32() != 0;
  const int window = reader->ReadInt32();
  const int session_field = reader->ReadInt32();
  const int max_correlations = reader->ReadInt32();
  if (!reader->ok() || use_key != options_.use_key_correlation ||
      use_value != options_.use_value_correlation ||
      window != options_.value_correlation_window ||
      session_field != options_.session_field ||
      max_correlations != options_.max_value_correlations) {
    return false;
  }

  const int next_index = reader->ReadInt32();
  if (!reader->ok() || next_index < 0) return false;

  // Staged into the tracker's own resource; committed by a pointer swap.
  auto staged = std::make_unique<State>(memory_);
  const int32_t num_keys = reader->ReadInt32();
  if (!reader->ok() || !plausible_count(num_keys)) return false;
  staged->key_items.reserve(num_keys);
  for (int32_t i = 0; i < num_keys; ++i) {
    const int key = reader->ReadInt32();
    std::vector<int> items;
    if (!ReadIndices(reader, next_index, &items)) return false;
    auto [slot, inserted] = staged->key_items.try_emplace(key);
    if (!inserted) return false;
    slot->second.assign(items.begin(), items.end());
  }

  const int32_t num_sessions = reader->ReadInt32();
  if (!reader->ok() || !plausible_count(num_sessions)) return false;
  staged->open_sessions.reserve(num_sessions);
  for (int32_t i = 0; i < num_sessions; ++i) {
    const int key = reader->ReadInt32();
    OpenSession session;
    if (!ReadSession(reader, next_index, &session)) return false;
    auto [slot, inserted] = staged->open_sessions.try_emplace(key);
    if (!inserted || !Index(staged.get(), key, session)) return false;
    slot->second = session;
  }

  next_index_ = next_index;
  state_ = std::move(staged);
  return true;
}

void CorrelationTracker::SnapshotDelta(
    BinaryWriter* writer, const std::vector<int>& dirty_sorted) const {
  writer->WriteInt32(next_index_);
  // Only dirty keys that actually carry tracker state are serialised (a
  // key can be dirtied by a force-close without ever reaching the
  // tracker's maps in this window).
  std::vector<int> present;
  present.reserve(dirty_sorted.size());
  for (int key : dirty_sorted) {
    if (state_->key_items.count(key) || state_->open_sessions.count(key)) {
      present.push_back(key);
    }
  }
  writer->WriteInt32(static_cast<int32_t>(present.size()));
  for (int key : present) {
    writer->WriteInt32(key);
    auto items_it = state_->key_items.find(key);
    writer->WriteInt32(items_it != state_->key_items.end() ? 1 : 0);
    if (items_it != state_->key_items.end()) {
      writer->WriteInts(items_it->second.data(), items_it->second.size());
    }
    auto session_it = state_->open_sessions.find(key);
    writer->WriteInt32(session_it != state_->open_sessions.end() ? 1 : 0);
    if (session_it != state_->open_sessions.end()) {
      WriteSession(writer, session_it->second);
    }
  }
}

bool CorrelationTracker::ApplyDelta(BinaryReader* reader,
                                    int expected_next_index) {
  const int next_index = reader->ReadInt32();
  if (!reader->ok() || next_index < next_index_ ||
      next_index != expected_next_index) {
    return false;
  }
  const int32_t num_keys = reader->ReadInt32();
  if (!reader->ok() || num_keys < 0 ||
      static_cast<size_t>(num_keys) > reader->remaining() / 8) {
    return false;
  }
  int prev_key = -1;
  for (int32_t i = 0; i < num_keys; ++i) {
    const int key = reader->ReadInt32();
    if (!reader->ok() || (i > 0 && key <= prev_key)) return false;
    prev_key = key;

    if (reader->ReadInt32() != 0) {  // item-index list present
      std::vector<int> items;
      if (!ReadIndices(reader, next_index, &items)) return false;
      state_->key_items[key].assign(items.begin(), items.end());
    }
    if (reader->ReadInt32() != 0) {  // open session present
      OpenSession session;
      if (!ReadSession(reader, next_index, &session)) return false;
      // Reposition in the inverted index: drop the key's old recency entry
      // (if the base had one), then insert the new one.
      OpenSession& slot = state_->open_sessions[key];
      Unindex(state_.get(), slot);
      slot = session;
      if (!Index(state_.get(), key, slot)) return false;
    }
  }
  if (!reader->ok()) return false;
  next_index_ = next_index;
  return true;
}

EpisodeMask BuildEpisodeMask(const TangledSequence& episode,
                             const CorrelationOptions& options) {
  const int total = static_cast<int>(episode.items.size());
  KVEC_CHECK_GT(total, 0);
  EpisodeMask result;
  result.mask = Tensor::Full(total, total, ops::kNegInf);
  result.visible.resize(total);
  CorrelationTracker tracker(options);
  for (int i = 0; i < total; ++i) {
    result.visible[i] = tracker.ObserveItem(episode.items[i]);
    result.mask.Set(i, i, 0.0f);  // M_ii = 0
    for (int j : result.visible[i]) {
      KVEC_DCHECK(j < i);
      result.mask.Set(i, j, 0.0f);
    }
  }
  return result;
}

}  // namespace kvec
