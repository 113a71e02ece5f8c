// Streaming inference engine: classify key-value sequences of a live
// tangled stream, one item — or one microbatch — at a time.
//
// This is the deployment-shaped API of the library (e.g., a router deciding
// per-flow application types as packets arrive). It combines
//  * a CorrelationTracker (streaming visibility sets),
//  * an IncrementalEncoder (O(t·d) per item instead of re-encoding), and
//  * the frozen fusion / policy / classifier heads of a trained KvecModel.
// Matches KvecTrainer::Evaluate's deterministic halting (Halt iff
// π(s) > 0.5); equivalence is covered by integration tests.
//
// Observation is split into two stages so callers can microbatch:
//  * EncodeBatch — correlation tracking + incremental encoding for B
//    consecutive stream items, driving the encoder's projections through
//    one GEMM per block instead of B row-vector multiplies. Every item is
//    encoded (halted keys included: their items shape the visibility sets
//    of live keys).
//  * DecideObserved — per item, folds the encoded row into its key's
//    fusion state and runs the halting policy / classifier.
// Observe == EncodeBatch of one item + DecideObserved, and ObserveBatch is
// stream-order equivalent to B Observe calls (pinned by
// core_batch_equivalence_test.cc). StreamServer interleaves the two stages
// with its own bookkeeping to keep eviction semantics identical.
//
// Threading: NOT thread-safe — every call mutates the stream clock, the
// correlation index, and the encoder caches. Run one engine per serving
// thread; ShardedStreamServer does exactly that (one engine per shard
// behind a per-shard mutex) while all engines share one frozen model.
// Complexity: O(t_visible · d) per item for encoding (incremental, never
// re-encodes history) plus O(matches + log) correlation tracking — see
// core/correlation.h. Memory grows with every observed item until the
// owner rotates the engine (StreamServer's max_window_items bound).
#pragma once

#include <memory>
#include <memory_resource>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/correlation.h"
#include "core/encoder.h"
#include "core/model.h"

namespace kvec {

// The engine's verdict on one observed item.
struct OnlineDecision {
  int key = 0;
  bool halted_now = false;       // this item triggered the halt of its key
  bool already_halted = false;   // key was halted earlier; item ignored
  int predicted_label = -1;      // valid once halted
  double halt_probability = 0.0;
  double confidence = 0.0;  // classifier max-softmax, set on halt
  int observed_items = 0;   // n_k so far
};

class OnlineClassifier {
 public:
  // `model` must outlive the classifier and should be trained; the engine
  // never updates parameters. `memory` backs the long-lived per-key state
  // (key-state map nodes and the correlation tracker's containers);
  // StreamServer passes its shard's ShardPool, standalone users get the
  // default resource. The resource must outlive the classifier.
  explicit OnlineClassifier(
      const KvecModel& model,
      std::pmr::memory_resource* memory = std::pmr::get_default_resource());

  // Feeds the next item of the tangled stream (chronological order).
  OnlineDecision Observe(const Item& item);

  // Batched ingest: equivalent to calling Observe on each item in order
  // (items must be in stream order), but the encoder runs the whole batch
  // through blocked GEMMs. Returns one decision per item, in order.
  std::vector<OnlineDecision> ObserveBatch(const std::vector<Item>& items);

  // ---- Two-stage API (used by StreamServer; see file comment). ----

  // Stage 1: tracks + encodes `count` consecutive stream items, writing
  // their final-block embedding rows to `rows` ([count, embed_dim],
  // row-major). Advances per-key positions and the stream clock.
  void EncodeBatch(const Item* items, int count, std::vector<float>* rows);

  // Stage 2: folds `row` (length embed_dim, from EncodeBatch) into `key`'s
  // fusion state and evaluates halting, exactly as Observe does. Must be
  // called once per encoded item, in stream order.
  OnlineDecision DecideObserved(int key, const float* row);

  // Forces classification of a still-open key from its current state
  // (e.g., when the flow terminates). Returns -1 if the key was never seen.
  // When `confidence` is non-null it receives the classifier's max-softmax
  // probability (0 if the key was never seen).
  int ForceClassify(int key, double* confidence = nullptr);

  // Observed-item count of a key (0 if never seen).
  int ObservedItems(int key) const;

  bool IsHalted(int key) const;
  int num_items_observed() const { return num_items_; }
  int embed_dim() const { return model_.config().embed_dim; }

  // Serving-state checkpointing: the stream clock, the correlation
  // tracker, the encoder's K/V caches, and every per-key fusion state.
  // Restore must be given an engine built over the same model (dimensions
  // and correlation options are validated; weights are the caller's
  // responsibility, exactly as with KvecModel::LoadFromFile). Fails closed:
  // returns false with *this untouched on corrupt or mismatched bytes.
  void Snapshot(BinaryWriter* writer) const;
  bool Restore(BinaryReader* reader);

  // Delta checkpointing (docs/SERVING.md "Incremental checkpoints"): the
  // engine-side state of exactly the keys in `dirty_sorted` (strictly
  // ascending stream keys mutated since the base snapshot), the correlation
  // tracker's delta for the same keys, and the encoder's appended K/V rows
  // since `base_items`. The caller passes base_items = 0 after a window
  // rotation (the delta then carries the whole young window). ApplyDelta
  // expects *this to hold exactly the base state (its item clock must equal
  // the delta's base_items echo) and upserts on top; it fails closed on
  // corrupt bytes but may leave *this partially updated — callers stage
  // into a scratch engine and discard on failure, exactly like the chain
  // loader's staged-servers pattern.
  void SnapshotDelta(BinaryWriter* writer, const std::vector<int>& dirty_sorted,
                     int base_items) const;
  bool ApplyDelta(BinaryReader* reader);

  // Rebuilds the per-key map and tracker containers into `memory` (leaving
  // the old resource empty) and tight-repacks the encoder's K/V arena.
  // Observable behaviour is unchanged — shard compaction's correctness
  // contract (bit-identical events, byte-identical checkpoints) rests on
  // every snapshot path already being canonical-order.
  void Repool(std::pmr::memory_resource* memory);

  // Returns the encoder's batch scratch arena to its reset point; the
  // serving loop calls this after each drained microbatch.
  void ResetEncodeScratch();

  // ---- Memory accounting (see StreamServerStats) ----
  size_t encoder_resident_bytes() const;  // K/V arena + scratch reserved
  size_t scratch_high_water() const;

 private:
  struct KeyState {
    FusionState state;
    bool halted = false;
    int observed = 0;
    int position_in_key = 0;
    int predicted = -1;
  };
  // pmr allocators do not propagate on assignment, so rebinding the map to
  // a fresh pool (Repool) means reconstructing it; owning it through a
  // pointer makes that a swap.
  using KeyStateMap = std::pmr::unordered_map<int, KeyState>;

  // The per-key records of the snapshot byte stream, shared by the full
  // path (every key) and the delta path (the dirty keys the engine holds)
  // so the two formats cannot drift. `keys` are ascending and present;
  // ReadKeyStates requires strictly ascending keys.
  void WriteKeyStates(BinaryWriter* writer, const std::vector<int>& keys) const;
  bool ReadKeyStates(BinaryReader* reader,
                     std::vector<std::pair<int, KeyState>>* states) const;

  const KvecModel& model_;
  std::pmr::memory_resource* memory_;
  IncrementalEncoder incremental_;
  CorrelationTracker tracker_;
  std::unique_ptr<KeyStateMap> keys_;
  int num_items_ = 0;
  // EncodeBatch scratch, reused across calls.
  std::vector<std::vector<int>> visible_scratch_;
  std::vector<int> position_scratch_;
};

}  // namespace kvec

