// Bounded-memory stream serving on top of OnlineClassifier.
//
// OnlineClassifier is exact but unbounded: its incremental-encoder caches
// grow with every stream item and its per-key states are never evicted. A
// long-running deployment (a router classifying flows for days) needs
// bounds. StreamServer adds three:
//
//   * window rotation — after `max_window_items` items the whole engine is
//     rebuilt, discarding the encoder caches. Keys still open are
//     force-classified first. Cross-window value correlations are lost;
//     that is the price of O(window) memory and it is measured by the
//     stream-server tests (the window should comfortably exceed the
//     value-correlation window, after which nothing is lost).
//   * idle timeout — a key that has not produced an item for
//     `idle_timeout` stream positions is force-classified and evicted
//     (flow ended without a FIN, user went away).
//   * capacity eviction — when more than `max_open_keys` keys are open,
//     the least recently active one is force-classified.
//
// Both evictions are driven by a last-seen index (an ordered set of
// (last_seen, key) pairs mirroring the open map), so capacity eviction is
// O(log open_keys) per item and an idle sweep is O(evicted), never a full
// scan of the open set.
//
// Every classification (policy halt or forced) is emitted as a
// StreamEvent, with the cause recorded, so downstream consumers see one
// verdict per key-value sequence.
//
// Threading: NOT thread-safe — one server serves one stream from one
// thread. For concurrent ingest wrap shards in ShardedStreamServer,
// which serialises same-shard callers on a per-shard mutex.
//
// Memory: all long-lived per-key state — the open-key map, the recency
// index, the engine's key-state map, and the correlation containers —
// allocates from a per-server ShardPool (std::pmr::unsynchronized_pool_
// resource), so eviction/insert churn recycles pool nodes instead of
// hitting the global allocator. A fragmentation heuristic (pool bytes
// resident vs live) periodically triggers Compact(), which rebuilds the
// state into a fresh pool and returns the old pool's chunks to the OS in
// one sweep. Compaction is semantics-free: a server that compacts
// mid-stream emits bit-identical StreamEvents and byte-identical
// checkpoints versus one that never compacts (pinned by
// tests/core_compaction_test.cc). docs/SERVING.md "Memory management"
// covers the lifecycle and knobs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <memory_resource>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/online.h"
#include "util/arena.h"
#include "util/serialize.h"

namespace kvec {

// Checkpoint-container section ids (kCheckpointSection*) live in the
// registry in util/serialize.h.

struct StreamServerConfig {
  // Engine rebuild period, in stream items. Should be much larger than the
  // model's value-correlation window so rotations rarely cut correlations.
  int max_window_items = 4096;
  // Evict a key once `idle_timeout` stream positions have passed since its
  // last item, i.e. when position - last_seen >= idle_timeout. A key last
  // seen at position p survives items p+1 .. p+idle_timeout-1 and is
  // evicted by the check at position p+idle_timeout.
  int idle_timeout = 512;
  // Idle keys are swept every `idle_check_interval` items, so eviction can
  // lag the deadline by up to idle_check_interval-1 positions. The sweep
  // walks the last-seen index oldest-first and is O(evicted), so 1 is an
  // acceptable setting; the default stays coarse for deployments that want
  // evictions batched.
  int idle_check_interval = 32;
  // Maximum concurrently open keys before LRU eviction.
  int max_open_keys = 1024;

  // ---- Compaction (process-local; deliberately NOT serialized into
  // checkpoints — Restore keeps the live server's values, so operators can
  // retune without invalidating checkpoints and the v1 layout stays
  // byte-identical). ----
  //
  // Run the fragmentation check every `compaction_check_interval` observed
  // items; <= 0 disables automatic compaction (explicit Compact() calls
  // still work).
  int compaction_check_interval = 4096;
  // Compact when pool bytes_resident / bytes_live exceeds this ratio ...
  double compaction_fragmentation_threshold = 2.0;
  // ... and the pool holds at least this many resident bytes (small pools
  // are never worth rebuilding).
  int64_t compaction_min_bytes = 4 << 20;
};

struct StreamEvent {
  enum class Cause {
    kPolicyHalt,         // the ECTL policy halted the key
    kIdleTimeout,        // evicted after idle_timeout
    kCapacityEviction,   // evicted to respect max_open_keys
    kWindowRotation,     // force-classified at an engine rebuild
    kFlush,              // force-classified by Flush()
  };

  int key = 0;
  int predicted_label = -1;
  int observed_items = 0;
  double confidence = 0.0;
  Cause cause = Cause::kPolicyHalt;
};

struct StreamServerStats {
  int64_t items_processed = 0;
  int64_t sequences_classified = 0;
  // Per-cause verdict counters; they partition sequences_classified.
  int64_t policy_halts = 0;
  int64_t idle_timeouts = 0;
  int64_t capacity_evictions = 0;
  int64_t rotation_classifications = 0;
  int64_t flush_classifications = 0;
  int windows_started = 1;
  std::vector<int64_t> class_counts;  // predictions per class

  // ---- Transport-layer (submission/overload) counters. ----
  //
  // Maintained by ShardedStreamServer's ingest layer, not by the serving
  // loop: a bare StreamServer leaves them 0, and they are deliberately NOT
  // part of the checkpoint snapshot (they describe the life of a process,
  // not serving state — and the v1 golden layout stays byte-identical).
  // Within one server lifetime the overload invariant holds:
  //   items_submitted == items_processed + items_shed.
  int64_t items_submitted = 0;  // items offered to Observe/ObserveBatch/Submit
  int64_t batches_shed = 0;     // batches dropped by a shed overload policy
  int64_t items_shed = 0;       // items inside those dropped batches

  // ---- Memory counters. ----
  //
  // Gauges refreshed from the shard pool / encoder on every stats() read,
  // plus a lifetime compaction counter. Like the transport counters they
  // are NOT serialized (process-lifetime observability, and the v1
  // checkpoint layout stays byte-identical). Merge() sums them, so a
  // sharded server's view reports fleet-total resident bytes.
  int64_t bytes_resident = 0;      // shard pool + encoder arena + scratch
  int64_t pool_blocks = 0;         // chunks the pool holds from the OS
  int64_t scratch_high_water = 0;  // batch scratch arena high-water bytes
  int64_t compactions = 0;         // Compact() runs (heuristic or forced)

  // Accumulates `other` into this view: counters and class_counts are
  // summed (class_counts widened as needed); windows_started adds up, so
  // start a merged view from windows_started = 0.
  void Merge(const StreamServerStats& other);
};

class StreamServer {
 public:
  // `model` must be trained and outlive the server.
  StreamServer(const KvecModel& model, const StreamServerConfig& config);

  // Feeds the next stream item; returns every classification event it
  // triggered (the item's own policy halt, plus any evictions/rotation).
  // Runs entirely under InferenceMode: no autograd tape is built.
  std::vector<StreamEvent> Observe(const Item& item);

  // Batched ingest: processes `items` in stream order and returns the
  // concatenation of the per-item event lists — the same StreamEvent
  // sequence (keys, labels, causes, order) that len(items) Observe calls
  // would have produced (pinned by core_batch_equivalence_test.cc). The
  // encoder runs each microbatch through blocked GEMMs, splitting only at
  // window-rotation boundaries; eviction bookkeeping stays per item.
  // Note the exactness rests on GemmNN and VecMat sharing the same
  // per-row accumulation kernel; should the GEMM layer ever reorder
  // per-row accumulation, batched embeddings may drift by ~1 ulp and a
  // halt probability sitting exactly on the 0.5 threshold could flip.
  std::vector<StreamEvent> ObserveBatch(const std::vector<Item>& items);

  // Force-classifies all still-open keys (end of stream).
  std::vector<StreamEvent> Flush();

  // Rebuilds all pool-backed state (open-key index, engine key states,
  // correlation containers) into a fresh ShardPool, tight-packs the
  // encoder's K/V arena, and releases the old pool's chunks. Observable
  // behaviour is unchanged: subsequent events and checkpoints are
  // identical to a never-compacted server. Called automatically by the
  // fragmentation heuristic (see StreamServerConfig); safe to force at any
  // item boundary. Returns false when the `compaction.run` fault point
  // suppressed the run.
  bool Compact();

  // Refreshes the memory gauges before returning (compactions/counters are
  // maintained incrementally; the gauges mirror live pool state).
  const StreamServerStats& stats() const;
  int open_keys() const { return static_cast<int>(index_->open.size()); }

  // ---- Checkpoint / warm restart (docs/SERVING.md). ----
  //
  // Snapshot captures everything the serving loop owns — config, stream
  // clocks, stats, the open-key map — plus the engine (correlation index,
  // encoder K/V arena, per-key fusion states). Restoring into a server
  // built over the same model yields a server whose subsequent StreamEvent
  // sequence is identical to an uninterrupted run on the same input
  // (pinned by tests/core_checkpoint_replay_test.cc).
  //
  // Restore fails closed: on truncated, corrupted, or model-mismatched
  // bytes it returns false and the server is untouched (pinned by the
  // corruption-fuzz test). The recency index is rebuilt from the open map
  // rather than serialized. The snapshot must be the reader's final
  // content (it always is in a checkpoint section); trailing bytes are
  // treated as corruption.
  void Snapshot(BinaryWriter* writer) const;
  bool Restore(BinaryReader* reader);

  // Convenience wrappers around the checkpoint container: one
  // kCheckpointSectionStreamServer section framed with magic + version.
  std::string EncodeCheckpoint() const;
  bool RestoreCheckpoint(const std::string& bytes);
  bool SaveCheckpoint(const std::string& path) const;
  bool LoadCheckpoint(const std::string& path);

  // ---- Incremental (delta) checkpointing (docs/SERVING.md). ----
  //
  // The server tracks which keys were mutated since the last committed
  // snapshot (observe, policy halt, eviction, rotation — every path that
  // touches a key's serving or engine state marks it dirty), and
  // SnapshotDelta serialises only those keys: the serving-index upserts
  // for dirty keys still open, tombstones for dirty keys no longer open,
  // the engine-side per-key deltas, and the encoder K/V rows appended
  // since the base. Cost is proportional to churn, not population.
  //
  // The snapshot/commit pair is two-phase so a failed delta write cannot
  // lose dirty bits: SnapshotDelta *stages* a clear (remembering the
  // current dirty epoch); CommitDeltaBaseline applies it once the bytes
  // are durable, erasing only entries at or below the staged epoch — a
  // key re-dirtied between the two calls carries a later epoch and stays
  // dirty. If the write fails, simply never commit: the next delta
  // re-carries everything. Tracking is armed by the first
  // StageDeltaBaseline + CommitDeltaBaseline pair (a full-checkpoint
  // baseline); until then MarkDirty is a no-op, so servers that never
  // checkpoint incrementally pay nothing and the dirty map cannot grow.
  //
  // ApplyDelta expects *this to hold exactly the predecessor state of the
  // chain (validated via the engine's item-clock echo); it fails closed
  // on corrupt bytes but may leave *this partially updated, so callers
  // stage into fresh servers and commit all-or-nothing
  // (ShardedStreamServer::RestoreFromCheckpointChain). A full Restore
  // disarms dirty tracking; the chain loader re-arms it after commit.
  void SnapshotDelta(BinaryWriter* writer);
  bool ApplyDelta(BinaryReader* reader);
  // Stages the dirty-clear + baselines matching the state being snapshot
  // right now. SnapshotDelta stages implicitly; full-checkpoint callers
  // (the rebase path) call this next to Snapshot() in the same control
  // task so the baseline is atomic with the bytes.
  void StageDeltaBaseline();
  void CommitDeltaBaseline();

 private:
  struct OpenKey {
    int64_t last_seen = 0;  // global stream position of the latest item
  };

  // Emits a forced classification for `key` and drops it from the open set.
  void ForceClose(int key, StreamEvent::Cause cause,
                  std::vector<StreamEvent>* events);
  void RotateWindow(std::vector<StreamEvent>* events);
  void EvictIdle(std::vector<StreamEvent>* events);
  void RecordEvent(const StreamEvent& event);
  // Post-decision bookkeeping shared by Observe and ObserveBatch: advances
  // the clocks, emits/halts/evicts for one observed item.
  void Bookkeep(const Item& item, const OnlineDecision& decision,
                std::vector<StreamEvent>* events);

  using OpenKeyMap = std::pmr::map<int, OpenKey>;

  // The pool-backed serving index. pmr allocators do not propagate on
  // assignment, so rebinding to a fresh pool (Compact) means
  // reconstructing the containers; grouping them in one struct behind a
  // pointer makes the rebuild an allocate-copy-swap.
  struct KeyIndex {
    explicit KeyIndex(std::pmr::memory_resource* memory)
        : open(memory), by_last_seen(memory) {}

    OpenKeyMap open;  // keys fed to the engine, not yet closed
    // Mirror of open ordered by recency: one (last_seen, key) entry per
    // open key. begin() is the LRU candidate; idle sweeps walk it
    // oldest-first.
    std::pmr::set<std::pair<int64_t, int>> by_last_seen;
  };

  // Record code shared by the full and delta layouts (the serving-index
  // records are in stream_server.cc). Both open with the header: the four
  // serialized config knobs, the stream clocks and the stats. ReadHeader
  // checks what both require (clock ranges, the model's class count); each
  // caller checks the rest. AdoptHeader commits a read header, keeping the
  // process-local fields' live values.
  struct Header {
    StreamServerConfig config;
    int64_t position = 0;
    int window_items = 0;
    StreamServerStats stats;
  };
  void WriteHeader(BinaryWriter* writer) const;
  bool ReadHeader(BinaryReader* reader, Header* header) const;
  void AdoptHeader(Header header);

  // Shared bodies of the four checkpoint entry points.
  Checkpoint BuildCheckpoint() const;
  bool RestoreFromCheckpoint(const Checkpoint& checkpoint);

  // Remove a key from open and by_last_seen together — the only place
  // the two structures' mirror invariant is maintained on the close path.
  void CloseKey(OpenKeyMap::iterator it);
  void CloseKey(int key);  // no-op if not open

  // Records `key` as mutated since the last committed delta baseline.
  // No-op until dirty tracking is armed (see SnapshotDelta above).
  void MarkDirty(int key) {
    if (dirty_tracking_) dirty_keys_[key] = dirty_epoch_;
  }

  // Runs the fragmentation heuristic after `items` more observed items;
  // calls Compact() when it trips.
  void MaybeCompact(int items);
  // Copies live pool/encoder gauges into stats_ (const via mutable: the
  // gauges are observability, not serving state).
  void RefreshMemoryStats() const;

  const KvecModel& model_;
  StreamServerConfig config_;
  // Declared before the members that allocate from it so it outlives them
  // (destruction runs bottom-up).
  std::unique_ptr<ShardPool> pool_;
  std::unique_ptr<OnlineClassifier> engine_;
  std::unique_ptr<KeyIndex> index_;
  int64_t position_ = 0;  // global items processed
  int window_items_ = 0;  // items in the current engine window
  int items_since_compaction_check_ = 0;
  mutable StreamServerStats stats_;

  // ---- Dirty-key tracking (incremental checkpoints). ----
  // Plain std containers, deliberately NOT pool-backed: the dirty map is
  // checkpoint bookkeeping, not serving state — Compact() must not copy
  // it between pools and a snapshot of it is never taken.
  bool dirty_tracking_ = false;
  int64_t dirty_epoch_ = 0;
  std::unordered_map<int, int64_t> dirty_keys_;  // key -> epoch of mutation
  // Baselines of the last committed snapshot: the engine item clock the
  // encoder tail starts from, and the window generation (a mismatch means
  // the engine was rebuilt since the base, so the delta carries the whole
  // young window from item 0).
  int base_engine_items_ = 0;
  int base_windows_started_ = 1;
  // Staged by StageDeltaBaseline, applied by CommitDeltaBaseline.
  bool pending_baseline_ = false;
  int64_t pending_epoch_ = 0;
  int pending_engine_items_ = 0;
  int pending_windows_started_ = 1;
};

}  // namespace kvec

