// Item-correlation tracking and the dynamic mask matrix M(t) (paper §IV-B).
//
// Two items of a tangled sequence are correlated when
//   * key correlation:   e.k == e'.k, or
//   * value correlation: there is a key k such that ⟨k, e.v⟩ and ⟨k, e'.v⟩
//     would fall in the same *session* of S_k (a maximal, uninterrupted run
//     of items agreeing on the session field).
//
// `CorrelationTracker` implements the streaming interpretation: when item i
// arrives it is correlated (a) with all earlier items of its own key and
// (b) with the items of any key's currently *open* session whose session-
// field value matches item i's and whose last item arrived at most
// `value_correlation_window` stream positions ago ("uninterrupted in time").
//
// Value matching is served by an inverted index: for each session value the
// tracker keeps the open sessions currently carrying that value, ordered by
// the stream position of their most recent item. An arriving item walks its
// value's bucket newest-first and stops at the first session outside the
// recency window, so the per-item cost is O(own-key items + matches +
// log sessions-sharing-the-value) — independent of the total number of open
// sessions. The pre-index implementation scanned every open session per
// item, which is exactly what a busy server with 10⁵ open keys cannot
// afford (see bench/micro_pipeline.cc, BM_CorrelationObserve).
//
// The same tracker drives both the batch mask builder used in training and
// the online inference engine, so the two cannot drift apart:
// BuildEpisodeMask is a loop over ObserveItem and therefore exercises the
// identical index.
//
// Threading: NOT thread-safe; a tracker belongs to exactly one engine
// (OnlineClassifier) and is mutated on every ObserveItem. Independent
// trackers on different threads never share state.
//
// Memory: every container — the per-key item lists, the open sessions
// (including their index vectors), and the inverted index — allocates from
// the memory_resource passed at construction. Serving hands in the shard's
// ShardPool so session churn recycles pool nodes; training and tests use
// the default resource. Repool() rebuilds the whole state into a fresh
// resource (shard compaction).
#pragma once

#include <map>
#include <memory>
#include <memory_resource>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "data/types.h"
#include "tensor/tensor.h"
#include "util/serialize.h"

namespace kvec {

class CorrelationTracker {
 public:
  explicit CorrelationTracker(
      const CorrelationOptions& options,
      std::pmr::memory_resource* memory = std::pmr::get_default_resource());

  // Registers the next stream item and returns the indices of *earlier*
  // items visible to it (its own index is always implicitly visible).
  // Indices are global stream positions, strictly increasing calls.
  // Same-key indices come first (ascending); cross-key value-correlated
  // indices follow, also ascending — a canonical order, so batched and
  // item-at-a-time consumers see identical sets in identical order.
  std::vector<int> ObserveItem(const Item& item);

  int num_observed() const { return next_index_; }

  // Serving-state checkpointing. Snapshot writes a canonical (key-sorted)
  // byte stream; Restore parses it into a tracker constructed with the
  // same options and rebuilds the inverted index from the open sessions.
  // Restore fails closed: on truncated/corrupt bytes, an options mismatch,
  // or structurally impossible indices it returns false and leaves *this
  // untouched.
  void Snapshot(BinaryWriter* writer) const;
  bool Restore(BinaryReader* reader);

  // Delta checkpointing (docs/SERVING.md "Incremental checkpoints").
  // Per-key state only ever changes when that key's item is observed, so a
  // delta carries the *current* state of exactly the keys in
  // `dirty_sorted` (strictly ascending): the item-index list and the open
  // session, each behind a presence flag. ApplyDelta upserts those keys
  // into a tracker already holding the base state — replacing their lists
  // and repositioning their sessions in the inverted index — and adopts
  // the delta's stream clock, which must equal `expected_next_index` (the
  // caller cross-checks against the engine's item count). Both paths share
  // one session record writer and reader, so the two formats cannot drift.
  // ApplyDelta fails closed on corrupt bytes but may
  // leave *this partially updated — callers stage into a scratch tracker
  // (the chain loader's staged-servers pattern) and discard on failure.
  void SnapshotDelta(BinaryWriter* writer,
                     const std::vector<int>& dirty_sorted) const;
  bool ApplyDelta(BinaryReader* reader, int expected_next_index);

  // Rebuilds every container into `memory` and adopts it for all future
  // allocations. Observable state is unchanged (the canonical key-sorted
  // Snapshot cannot tell the difference); the point is that the old
  // resource is left with zero live blocks so the caller can drop it.
  void Repool(std::pmr::memory_resource* memory);

 private:
  // Allocator-aware so pmr maps propagate their resource into the per-
  // session index vector (uses-allocator construction).
  struct OpenSession {
    using allocator_type = std::pmr::polymorphic_allocator<int>;
    OpenSession() = default;
    explicit OpenSession(const allocator_type& alloc) : item_indices(alloc) {}
    OpenSession(const OpenSession& other, const allocator_type& alloc)
        : session_value(other.session_value),
          item_indices(other.item_indices, alloc),
          last_index(other.last_index) {}
    OpenSession(OpenSession&& other, const allocator_type& alloc)
        : session_value(other.session_value),
          item_indices(std::move(other.item_indices), alloc),
          last_index(other.last_index) {}
    OpenSession(const OpenSession&) = default;
    OpenSession(OpenSession&&) = default;
    OpenSession& operator=(const OpenSession&) = default;
    OpenSession& operator=(OpenSession&&) = default;

    int session_value = -1;
    std::pmr::vector<int> item_indices;  // members of the open session
    int last_index = -1;
  };

  // All pool-backed containers live behind one pointer: pmr allocators do
  // not propagate on assignment, so moving state into a different pool
  // means *reconstructing* the containers — swap the struct wholesale.
  struct State {
    explicit State(std::pmr::memory_resource* memory)
        : key_items(memory), open_sessions(memory), by_value(memory) {}
    // Hot per-item lookups: iteration order is not load-bearing, so these
    // are hash maps (the ordered walk lives in by_value below).
    std::pmr::unordered_map<int, std::pmr::vector<int>> key_items;
    std::pmr::unordered_map<int, OpenSession> open_sessions;
    // Inverted index: session value -> (last_index -> key) over the open
    // sessions currently carrying that value. last_index is unique (one
    // item per stream position), and the map order is recency order, so the
    // window cutoff is a newest-first walk stopping at the first stale
    // session.
    std::pmr::unordered_map<int, std::pmr::map<int, int>> by_value;
  };

  // One open-session record: value, last index, member indices. The reader
  // requires every index to be one the tracker had assigned before
  // `next_index`.
  static void WriteSession(BinaryWriter* writer, const OpenSession& session);
  static bool ReadSession(BinaryReader* reader, int next_index,
                          OpenSession* session);
  // Drops / adds the inverted-index entry of `key`'s `session` (none while
  // its last_index is -1). Index fails if another session already holds
  // that stream position.
  static void Unindex(State* state, const OpenSession& session);
  static bool Index(State* state, int key, const OpenSession& session);

  // Collects the cross-key value matches for an item with `session_value`
  // arriving at stream position `index`, appending to `visible`.
  void AppendValueMatches(int own_key, int session_value, int index,
                          std::vector<int>* visible) const;

  CorrelationOptions options_;
  int next_index_ = 0;
  std::pmr::memory_resource* memory_;
  std::unique_ptr<State> state_;
};

// The dynamic mask matrix over a whole episode.
struct EpisodeMask {
  // [T,T] tensor with 0 where item j is visible to item i (j <= i) and
  // ops::kNegInf elsewhere; constant (no gradient).
  Tensor mask;
  // For attention instrumentation (Fig. 10): visible[i] lists the stream
  // positions j < i visible to i.
  std::vector<std::vector<int>> visible;
};

// Builds M(T) for `episode` under `options`.
EpisodeMask BuildEpisodeMask(const TangledSequence& episode,
                             const CorrelationOptions& options);

}  // namespace kvec

