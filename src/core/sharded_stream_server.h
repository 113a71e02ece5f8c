// Concurrent stream serving: N StreamServer shards behind a key hash.
//
// KVEC's key correlation, value correlation and halting policy need one
// thing from a serving stack: a key's items arrive in order. One
// StreamServer is inherently serial (one engine, one open-key map, one
// stats block), so ShardedStreamServer partitions the key space across
// `num_shards` independent shards, each owning a full StreamServer
// (engine + open-key state + stats).
//
// Every shard runs its work through one executor. Each operation below is
// a task handed to the shard's executor, and every task runs under that
// shard's mutex. The executor has two runners:
//
//   * inline (worker_threads = 0, the default) — the task runs now, on
//     the caller's thread; a call touching several shards serves them in
//     shard order. Deterministic: the replay/golden/equivalence tests pin
//     this runner. Racing callers serialize on the shard mutex.
//   * worker-owned (worker_threads = num_shards) — each shard owns one
//     worker thread plus a bounded MPSC task queue (util/bounded_queue.h).
//     Tasks are pushed onto the queue and the worker runs them in FIFO
//     order, taking the shard mutex uncontended (nothing else takes it).
//     Overload is a first-class condition: when a shard's queue is full,
//     `overload_policy` decides whether a Submit producer blocks
//     (backpressure), the new batch is dropped, or the oldest queued batch
//     is dropped. Every dropped batch/item is counted in the
//     batches_shed/items_shed stats, never lost silently.
//
// Ingest has two shapes. `Submit` is fire-and-forget: it routes the batch
// and hands one sub-batch per shard to the executor; events surface through
// `config.on_events`. `Observe`/`ObserveBatch`/`Flush` hand the executor
// waited-on tasks and return the events, so their event sequences are the
// same under both runners (they bypass the overload policy; only Submit can
// shed).
//
// What a query sees: each shard answers at one of its own task boundaries,
// never mid-batch, so one shard's counters always partition. Shards answer
// one after another, not at one instant: a merged stats() or a checkpoint
// taken while producers are running can see a sharded batch in some shards
// and not yet in others. Quiescing is the caller's protocol (stop
// submitting, Drain, then query).
//
// The trade-off, stated once here and assumed everywhere: cross-shard
// value correlations are cut. Two keys that hash to different shards never
// see each other's sessions, exactly as if they had been served by
// separate processes. Keys whose correlations matter should hash together
// (the partitioning is by key only, so this matches the paper's deployment
// where a flow's items always carry the same key). Within a shard the
// semantics are identical to StreamServer: feed the same sub-stream to a
// standalone StreamServer and you get the same verdicts (covered by
// core_sharded_stream_server_test.cc).
//
// Bounds are per shard: global capacity is num_shards * max_open_keys and
// idle timeouts / window rotations are measured in per-shard stream
// positions (a shard's clock only advances when it receives an item).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/stream_server.h"
#include "util/bounded_queue.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kvec {

struct ShardedStreamServerConfig {
  int num_shards = 8;
  // Which runner executes shard tasks: 0 = inline on the caller's thread;
  // num_shards = one owned worker thread per shard. Other values are
  // rejected (the model is one worker per shard — scale workers by scaling
  // shards).
  int worker_threads = 0;
  // Per-shard bounded task-queue capacity, in tasks (worker-owned only).
  int queue_depth = 256;
  // What a full shard queue does to a Submit batch (worker-owned only).
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
  // Event sink for Submit-ingested batches, invoked after each processed
  // sub-batch outside the shard mutex: on the owning worker (worker-owned)
  // or on the submitting thread (inline). Shards call it concurrently, so
  // the sink must be thread-safe, and it must not call back into the
  // server. Events returned by Observe/ObserveBatch/Flush do NOT pass
  // through the sink (the caller already holds them).
  std::function<void(int shard, const std::vector<StreamEvent>& events)>
      on_events;
  // Per-shard bounds, applied to each shard's StreamServer independently.
  StreamServerConfig shard;
};

class ShardedStreamServer {
 public:
  // `model` must be trained and outlive the server. Builds `num_shards`
  // independent engines and, for the worker-owned runner, starts the shard
  // workers.
  ShardedStreamServer(const KvecModel& model,
                      const ShardedStreamServerConfig& config);

  // Graceful shutdown: closes the queues, drains every already-accepted
  // task, then joins the workers. Accepted work is never dropped.
  ~ShardedStreamServer();

  ShardedStreamServer(const ShardedStreamServer&) = delete;
  ShardedStreamServer& operator=(const ShardedStreamServer&) = delete;

  // The shard an item with this key is routed to (deterministic hash).
  int ShardOf(int key) const;
  // The same routing for a server of `num_shards` shards, so a caller can
  // size shards before constructing one.
  static int ShardOf(int key, int num_shards);

  // Waited-on ingest: returns the item's events. Thread-safe; never shed.
  std::vector<StreamEvent> Observe(const Item& item);

  // Waited-on batched ingest: routes `items` to their shards (inline: served
  // in shard order; worker-owned: in parallel on the shard workers),
  // handing each shard its sub-batch as one contiguous microbatch
  // (StreamServer::ObserveBatch — arrival order within the shard
  // preserved, encoder projections batched through GEMM). Returned events
  // are grouped by shard (shard 0's events first), in emission order
  // within a shard. Thread-safe; never shed.
  std::vector<StreamEvent> ObserveBatch(const std::vector<Item>& items);

  // Fire-and-forget ingest, the overload-policy path. Routes `items` and
  // enqueues one sub-batch per shard under `overload_policy`:
  //   kBlock      — waits for queue space (backpressure);
  //   kShedNewest — a full queue drops the incoming sub-batch;
  //   kShedOldest — a full queue drops its oldest queued batch instead.
  // Every accepted item is eventually processed (visible via on_events and
  // stats); every dropped one is counted. After Drain() the overload
  // invariant holds: items_submitted == items_processed + items_shed.
  // Inline: runs each sub-batch on the caller's thread (nothing to shed).
  // Returns how many items this call caused to be shed (0 = nothing
  // dropped): the incoming sub-batches under kShedNewest, older queued
  // batches under kShedOldest. This is what lets the TCP front end answer
  // OVERLOADED per batch instead of discovering drops later in aggregate
  // stats.
  int64_t Submit(const std::vector<Item>& items);

  // Blocks until every task handed to the shards before this call has run
  // (inline: they all already have). Does not stop concurrent producers —
  // quiescing is the caller's protocol (stop submitting, then Drain).
  void Drain();

  // Force-classifies all still-open keys on every shard (a waited-on task,
  // so a worker-owned shard first runs everything already queued).
  std::vector<StreamEvent> Flush();

  // Merged view across shards: counters and class_counts are summed;
  // windows_started is the total across shards (each shard starts at 1);
  // items_submitted/batches_shed/items_shed aggregate the transport-layer
  // counters. Each shard answers at its own task boundary (see the header
  // comment): per-shard counters partition, the cross-shard view is only
  // as consistent as the caller's quiescing.
  StreamServerStats stats() const;

  // One shard's own stats (same snapshot discipline as stats()).
  StreamServerStats shard_stats(int shard) const;

  // Forces a pool compaction on every shard (StreamServer::Compact), one
  // shard at a time through the executor — shard s rebuilds its pool
  // while every other shard keeps serving, so it composes with the
  // overload policies the same way checkpoint encode does. Returns how
  // many shards actually compacted (the `compaction.run` fault point can
  // suppress individual shards). The heuristic pass needs no call here:
  // each shard's own serving loop triggers it.
  int CompactAll();

  int open_keys() const;
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // ---- Checkpoint / warm restart (docs/SERVING.md). ----
  //
  // The checkpoint is a manifest section (shard count — restore fails on a
  // mismatch, since the key hash routes by shard count) plus one section
  // per shard holding that shard's full StreamServer snapshot, taken as a
  // task on that shard's executor (a worker-owned shard first runs
  // everything already queued). For a cross-shard-consistent
  // checkpoint, stop submitting first (concurrent ingest would land in
  // some shards' snapshots and not others).
  //
  // Restore stages every shard in a fresh StreamServer and swaps all of
  // them in only when the whole checkpoint parsed — a corrupt byte in any
  // shard leaves the server untouched. Restore also re-baselines the
  // transport counters (items_submitted := restored items_processed, shed
  // counters zeroed) so the overload invariant keeps holding after a warm
  // restart. A failed restore or load says why in `*error` when `error` is
  // non-null (e.g. "checkpoint has 4 shards, server has 2").
  std::string EncodeCheckpoint() const;
  bool RestoreCheckpoint(const std::string& bytes,
                         std::string* error = nullptr);
  bool SaveCheckpoint(const std::string& path) const;
  bool LoadCheckpoint(const std::string& path, std::string* error = nullptr);

  // ---- Incremental checkpoints: delta chains (docs/SERVING.md). ----
  //
  // On-disk layout: a full version-1 base at `base_path` plus consecutive
  // version-2 delta files at `base_path + ".delta.1"`, ".delta.2", ...
  // Each delta's manifest stores the base's fingerprint, the previous
  // link's fingerprint, and its own sequence number, so the loader can
  // reject a delta cut against a different base, a reordered chain, or a
  // gap — any non-linking file fails the whole load, target untouched.
  struct IncrementalCheckpointState {
    int64_t deltas_written = 0;     // links currently after the base
    uint64_t base_fingerprint = 0;  // 0 = no base written/loaded yet
    uint64_t prev_fingerprint = 0;  // newest link (the base, initially)
  };

  // The on-disk name of chain link `seq` (1-based) for `base_path`.
  static std::string DeltaPath(const std::string& base_path, int64_t seq);

  // Appends one link to the chain at `base_path`: a delta carrying only
  // the keys mutated since the previous link, or — when no base exists
  // yet, or `rebase_every` > 0 deltas have accumulated — a fresh full
  // base (the rebase bounds both restore time and on-disk chain length).
  // Shards are serialized ONE AT A TIME through the executor, so the
  // rest of the fleet keeps serving during a snapshot; dirty bits are
  // cleared only after the bytes are durably on disk (a failed write —
  // see the `checkpoint.delta` fault point — leaves the server serving,
  // every dirty bit intact, and the previous chain loadable). A rebase
  // unlinks old deltas newest-first before atomically replacing the base,
  // so every crash point leaves a loadable chain on disk.
  bool CheckpointIncremental(const std::string& base_path, int rebase_every,
                             IncrementalCheckpointState* state);

  // Restores base + every consecutive delta, staged per shard and
  // committed all-or-nothing (same discipline as RestoreCheckpoint); any
  // undecodable or non-linking delta fails the load with the server
  // untouched. Passing `state` declares the intent to keep appending to
  // the chain: dirty tracking is re-armed at the restored state and
  // `state` is filled; a null `state` is a plain warm restart (tracking
  // stays disarmed so the dirty map cannot grow on a server that never
  // checkpoints again). A failed load says why in `*error` when `error` is
  // non-null.
  bool RestoreFromCheckpointChain(const std::string& base_path,
                                  IncrementalCheckpointState* state = nullptr,
                                  std::string* error = nullptr);

 private:
  using ServerSlot = std::unique_ptr<StreamServer>;
  // A waited-on task gets the shard index and the server slot (restore
  // swaps the server in through it).
  using ShardFn = std::function<void(int shard, ServerSlot& server)>;

  // One unit of shard work: a Submit sub-batch (fn empty; sheddable) or a
  // waited-on task.
  struct ShardTask {
    std::vector<Item> items;
    std::function<void(ServerSlot&)> fn;
  };
  using PushResult = BoundedQueue<ShardTask>::PushResult;

  struct Shard {
    // Every task holds this mutex while it touches `server`, under both
    // runners; KVEC_GUARDED_BY makes clang -Wthread-safety reject any
    // access that does not. Inline, racing callers serialize on it;
    // worker-owned, only the worker takes it.
    mutable Mutex mutex;
    ServerSlot server KVEC_GUARDED_BY(mutex);
    std::unique_ptr<BoundedQueue<ShardTask>> queue;  // worker-owned only
    std::thread worker;                              // worker-owned only
    // Transport-layer counters. Producers bump submitted/shed (Submit may
    // shed on the producer thread); stats snapshots read them. Atomics:
    // deliberately outside the mutex so the Submit path never locks for
    // them.
    std::atomic<int64_t> items_submitted{0};
    std::atomic<int64_t> batches_shed{0};
    std::atomic<int64_t> items_shed{0};
  };

  // The executor seam, and the one place past construction that reads
  // worker_threads. Inline: runs `task` now on the calling thread.
  // Worker-owned: pushes it onto the shard's queue — sheddable tasks under
  // overload_policy, the rest blocking for space (a saturated queue delays
  // a query, it cannot lose one) — and the worker runs it later. Returns
  // the queue verdict (inline: kAccepted); batches evicted under
  // kShedOldest are appended to `shed`.
  PushResult Dispatch(int shard, ShardTask task, bool sheddable,
                      std::vector<ShardTask>* shed) const;
  // Runs one task under the shard mutex: the only code that touches a
  // shard's server.
  void RunTask(int shard, ShardTask& task) const;
  // Runs `fn` through the executor on each of `shards` (ascending) and
  // blocks until every one ran. RunOnShard/RunOnAllShards are the one- and
  // all-shard forms; checkpoint encode and CompactAll iterate RunOnShard so
  // only one shard is paused at a time while the rest keep serving.
  void RunOnShards(const std::vector<int>& shards, const ShardFn& fn) const;
  void RunOnShard(int shard, const ShardFn& fn) const;
  void RunOnAllShards(const ShardFn& fn) const;

  // Splits `items` into per-shard sub-batches, arrival order preserved.
  std::vector<std::vector<Item>> Route(const std::vector<Item>& items) const;
  // Charges `count` dropped items against `shard`'s shed counters.
  static void CountShed(Shard* shard, int64_t batches, int64_t items);
  // Copies the transport atomics into an engine-stats snapshot the caller
  // already owns (no lock needed: the counters are atomics by design).
  static StreamServerStats MergeTransportCounters(const Shard& shard,
                                                  StreamServerStats stats);

  // Appends one `section_id` section per shard: the shard index, then what
  // `write` serializes on that shard's executor, one shard at a time.
  void AppendShardSections(
      int32_t section_id,
      const std::function<void(StreamServer&, BinaryWriter*)>& write,
      Checkpoint* checkpoint) const;
  // The reader for AppendShardSections: calls `read` with the shard index
  // and the rest of the payload for every `section_id` section. False if a
  // section names a shard out of range or twice, if any shard has none, or
  // if `read` fails.
  bool ReadShardSections(
      const Checkpoint& checkpoint, int32_t section_id,
      const std::function<bool(int shard, BinaryReader*)>& read) const;

  // Shared bodies of the four checkpoint entry points. With
  // `stage_delta_baseline`, each shard also stages its dirty-key baseline
  // in the same task as its snapshot (an incremental rebase).
  Checkpoint BuildCheckpoint(bool stage_delta_baseline = false) const;
  bool RestoreFromCheckpoint(const Checkpoint& checkpoint, std::string* error);
  // Restore split in two so the chain loader can apply deltas between the
  // staging and the commit: Stage parses a full checkpoint into fresh
  // per-shard servers (no live state touched), Commit swaps them all in
  // and re-baselines the transport counters.
  bool StageFromCheckpoint(const Checkpoint& checkpoint,
                           std::vector<std::unique_ptr<StreamServer>>* staged,
                           std::string* error);
  void CommitStaged(std::vector<std::unique_ptr<StreamServer>>* staged);

  const KvecModel& model_;
  ShardedStreamServerConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace kvec
