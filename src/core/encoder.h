// The KVRL encoder (paper §IV-B): input embedding followed by stacked
// correlation-masked attention blocks, producing the per-item embeddings
// E(t)_e that the fusion cell consumes.
//
// Because the dynamic mask matrix is causal (item i only attends to j ≤ i),
// encoding a whole episode once is equivalent to re-encoding after every
// arrival; see DESIGN.md §4.1. `IncrementalEncoder` exploits this at
// inference time: it appends one row per arriving item in O(t·d) instead of
// recomputing the full O(t²·d) pass, and is verified to match the batch
// encoder bit-for-bit-ish (1e-4) in tests.
//
// Threading: KvrlEncoder::Forward is a const read — concurrent calls over
// a frozen encoder are safe (each gets its own tape). IncrementalEncoder
// is stateful and NOT thread-safe: one instance per serving engine, which
// is how OnlineClassifier and each ShardedStreamServer shard use it.
#pragma once

#include <vector>

#include "core/config.h"
#include "core/correlation.h"
#include "core/input_embedding.h"
#include "nn/attention.h"
#include "nn/module.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace kvec {

struct EncodeResult {
  Tensor embeddings;                      // E(T): [T, d]
  std::vector<Tensor> attention_weights;  // one [T,T] per block
  EpisodeMask mask;
};

class KvrlEncoder : public Module {
 public:
  KvrlEncoder(const KvecConfig& config, Rng& rng);

  EncodeResult Forward(const TangledSequence& episode,
                       const EpisodeIndex& index, Rng& rng,
                       bool training) const;

  void CollectParameters(std::vector<Tensor>* out) override;

  const InputEmbedding& input_embedding() const { return input_; }
  const std::vector<AttentionBlock>& blocks() const { return blocks_; }
  const KvecConfig& config() const { return config_; }

 private:
  KvecConfig config_;
  InputEmbedding input_;
  std::vector<AttentionBlock> blocks_;
};

// Streaming forward pass over a frozen KvrlEncoder. No gradients, no
// dropout; caches per-block keys/values and computes only the new row(s)
// for each arriving item or microbatch.
//
// Memory layout: all cached K/V panels live in ONE contiguous arena drawn
// from BufferPool and grown geometrically, laid out SoA head-major —
// for block b and head h the keys of items 0..t form one contiguous
// [t, head_dim] panel. The attention score loop over an item's visible set
// therefore gathers contiguous head_dim-long rows (kernels::Dot on
// sequential memory) instead of striding across a [t, d] row-major matrix,
// and window rotation returns the whole arena to the pool in one release.
// (The seed implementation kept three std::vectors per block — including a
// block-outputs cache that nothing ever read — each reallocating
// independently as the window grew.)
class IncrementalEncoder {
 public:
  explicit IncrementalEncoder(const KvrlEncoder& encoder);
  ~IncrementalEncoder();

  IncrementalEncoder(const IncrementalEncoder&) = delete;
  IncrementalEncoder& operator=(const IncrementalEncoder&) = delete;

  // Appends the next stream item. `position_in_key` is its 0-based index
  // within its key sequence; `visible` lists the earlier stream positions
  // it may attend to (from CorrelationTracker::ObserveItem). Returns the
  // final-block embedding row E(t)_e (length d).
  std::vector<float> AppendItem(const Item& item, int position_in_key,
                                const std::vector<int>& visible);

  // Cross-item microbatch: appends `batch` consecutive stream items at
  // once. items[i] arrives at stream position num_items() + i with
  // visibility `visibles[i]` (which may reference earlier items of the
  // same batch — their K/V rows are cached before any attention runs).
  // The Q/K/V/FFN projections run as one [batch, d] GemmNN per weight
  // instead of `batch` row-vector VecMats; only the attention gather and
  // the layer norms stay per-row. Writes the final-block rows to `rows`
  // ([batch, d], row-major). Equivalent to `batch` AppendItem calls up to
  // GEMM summation order (≤1e-5; pinned by core_batch_equivalence_test).
  void AppendBatch(const Item* items, const int* positions_in_key,
                   const std::vector<int>* visibles, int batch,
                   std::vector<float>* rows);

  int num_items() const { return num_items_; }

  // Serving-state checkpointing: one panel writer and one staged panel
  // reader for full and delta checkpoints alike. WritePanels writes the
  // geometry header, the item range, and rows [begin, num_items()) of each
  // (block, head, K/V) panel as one float vector — the SoA layout is an
  // implementation detail the byte stream does not depend on. A full
  // checkpoint is the range from 0, whose start is implied; a delta
  // (`tail`) records its start. The K/V cache is append-only within a
  // window — row t is written once when item t arrives and never
  // rewritten — so the rows from a snapshot's item count on are exactly
  // what changed since it.
  //
  // ReadPanels validates the geometry against the frozen encoder, requires
  // the item count to equal `expected_items` (callers cross-check their
  // own clock) and a tail to start exactly at num_items(), stages every
  // panel, and only then touches the arena, so a failed read (truncation,
  // corruption, encoder mismatch) returns false with *this untouched.
  void WritePanels(BinaryWriter* writer, int begin, bool tail) const;
  bool ReadPanels(BinaryReader* reader, bool tail, int expected_items);

  // Repacks the K/V arena into the smallest geometric capacity that holds
  // the live items, returning the slack to BufferPool (shard compaction).
  // A no-op when the arena is already tight.
  void ShrinkToFit();

  // Rewinds the batch scratch arena (called after a drained microbatch;
  // AppendBatch also resets defensively on entry).
  void ResetScratch() { scratch_.Reset(); }

  // ---- Memory accounting ----
  // Bytes held by the K/V arena plus the batch scratch arena.
  size_t resident_bytes() const {
    return arena_.capacity() * sizeof(float) + scratch_.reserved_bytes();
  }
  size_t scratch_high_water() const { return scratch_.high_water(); }

 private:
  // A BufferPool-backed grow-only scratch buffer: the q/k/v/attended/hidden
  // scratch of the seed implementation was reallocated on every AppendItem
  // call; these persist per engine and return their storage to the pool on
  // destruction (so a rotated-in engine reuses the old engine's buffers).
  class PooledBuffer {
   public:
    PooledBuffer() = default;
    ~PooledBuffer();
    PooledBuffer(const PooledBuffer&) = delete;
    PooledBuffer& operator=(const PooledBuffer&) = delete;

    // Grow-only; existing contents are NOT preserved across growth.
    float* Ensure(size_t n);
    float* data() { return buffer_.data(); }
    std::vector<float>& vec() { return buffer_; }

   private:
    std::vector<float> buffer_;
  };

  // y = x W (+ b); row vector times weight matrix.
  static void LinearRow(const std::vector<float>& x, const Tensor& weight,
                        const Tensor& bias, std::vector<float>* y);
  static void LayerNormRow(const Tensor& gamma, const Tensor& beta,
                           float* x, int n);

  // Arena geometry. Panels are per (block, head) for K and V:
  //   K(b,h) = arena + b·2·C·d + h·C·head_dim
  //   V(b,h) = arena + b·2·C·d + C·d + h·C·head_dim
  // where C = capacity_ (items). head_dim·num_heads == d.
  float* KeyPanel(int block, int head);
  float* ValuePanel(int block, int head);
  // Grows the arena (geometrically) to hold at least `min_items` cached
  // items, repacking the live panels into the new layout.
  void EnsureCapacity(int min_items);
  // Moves the live panels into a fresh arena of `new_capacity` items
  // (either direction: growth or shrink-to-fit).
  void RepackArena(int new_capacity);
  // Scatters one item's k/v rows (length d each) into the head panels.
  void ScatterKv(int block, int t, const float* k, const float* v);
  // Masked attention for one query row against the cached panels of
  // `block`; writes the concatenated head outputs (length d) to `out`.
  void AttendRow(int block, const MaskedSelfAttention& attention,
                 const float* q, const std::vector<int>& targets, float* out);

  const KvrlEncoder& encoder_;
  int dim_;
  int head_dim_;
  int num_heads_;
  int num_items_ = 0;
  int capacity_ = 0;           // cached items the arena can hold
  std::vector<float> arena_;   // pooled; see layout above

  // Single-row scratch (AppendItem).
  PooledBuffer x_, q_, k_, v_, attended_, mixed_, h_, hidden_, f_;
  // Batched scratch (AppendBatch): all [batch, ·] panels come from this
  // monotonic arena, reset at the top of every batch — per-microbatch
  // scratch costs one pointer bump per panel instead of nine BufferPool
  // draws (and plateaus at the largest batch seen).
  ScratchArena scratch_;
  std::vector<float> scores_;
  std::vector<int> targets_;
};

}  // namespace kvec

