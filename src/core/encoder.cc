#include "core/encoder.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace kvec {

KvrlEncoder::KvrlEncoder(const KvecConfig& config, Rng& rng)
    : config_(config), input_(config, rng) {
  KVEC_CHECK_GT(config.num_blocks, 0);
  blocks_.reserve(config.num_blocks);
  for (int i = 0; i < config.num_blocks; ++i) {
    blocks_.emplace_back(config.embed_dim, config.ffn_hidden_dim,
                         config.dropout, rng, config.num_heads);
  }
}

EncodeResult KvrlEncoder::Forward(const TangledSequence& episode,
                                  const EpisodeIndex& index, Rng& rng,
                                  bool training) const {
  EncodeResult result;
  result.mask = BuildEpisodeMask(episode, config_.correlation);
  Tensor h = input_.Forward(episode, index);
  result.attention_weights.reserve(blocks_.size());
  for (const AttentionBlock& block : blocks_) {
    AttentionResult block_result =
        block.Forward(h, result.mask.mask, rng, training);
    h = block_result.output;
    result.attention_weights.push_back(block_result.weights);
  }
  result.embeddings = h;
  return result;
}

void KvrlEncoder::CollectParameters(std::vector<Tensor>* out) {
  input_.CollectParameters(out);
  for (AttentionBlock& block : blocks_) block.CollectParameters(out);
}

// ---- IncrementalEncoder --------------------------------------------------

IncrementalEncoder::PooledBuffer::~PooledBuffer() {
  BufferPool::Global().Release(std::move(buffer_));
}

float* IncrementalEncoder::PooledBuffer::Ensure(size_t n) {
  if (buffer_.size() < n) {
    BufferPool::Global().Release(std::move(buffer_));
    buffer_ = BufferPool::Global().AcquireUninitialized(n);
  }
  return buffer_.data();
}

IncrementalEncoder::IncrementalEncoder(const KvrlEncoder& encoder)
    : encoder_(encoder),
      dim_(encoder.config().embed_dim),
      head_dim_(encoder.blocks().front().attention().head_dim()),
      num_heads_(encoder.blocks().front().attention().num_heads()) {}

IncrementalEncoder::~IncrementalEncoder() {
  BufferPool::Global().Release(std::move(arena_));
}

float* IncrementalEncoder::KeyPanel(int block, int head) {
  const size_t block_stride = 2 * static_cast<size_t>(capacity_) * dim_;
  return arena_.data() + block * block_stride +
         static_cast<size_t>(head) * capacity_ * head_dim_;
}

float* IncrementalEncoder::ValuePanel(int block, int head) {
  const size_t block_stride = 2 * static_cast<size_t>(capacity_) * dim_;
  return arena_.data() + block * block_stride +
         static_cast<size_t>(capacity_) * dim_ +
         static_cast<size_t>(head) * capacity_ * head_dim_;
}

void IncrementalEncoder::RepackArena(int new_capacity) {
  KVEC_DCHECK(new_capacity >= num_items_);
  const int num_blocks = static_cast<int>(encoder_.blocks().size());
  std::vector<float> fresh = BufferPool::Global().AcquireUninitialized(
      2 * static_cast<size_t>(num_blocks) * new_capacity * dim_);
  if (num_items_ > 0) {
    // Move the live [num_items_, head_dim] panels into the new layout.
    const size_t old_block_stride = 2 * static_cast<size_t>(capacity_) * dim_;
    const size_t new_block_stride =
        2 * static_cast<size_t>(new_capacity) * dim_;
    const size_t live = static_cast<size_t>(num_items_) * head_dim_;
    for (int b = 0; b < num_blocks; ++b) {
      for (int h = 0; h < num_heads_; ++h) {
        // Keys.
        std::memcpy(fresh.data() + b * new_block_stride +
                        static_cast<size_t>(h) * new_capacity * head_dim_,
                    arena_.data() + b * old_block_stride +
                        static_cast<size_t>(h) * capacity_ * head_dim_,
                    live * sizeof(float));
        // Values.
        std::memcpy(fresh.data() + b * new_block_stride +
                        static_cast<size_t>(new_capacity) * dim_ +
                        static_cast<size_t>(h) * new_capacity * head_dim_,
                    arena_.data() + b * old_block_stride +
                        static_cast<size_t>(capacity_) * dim_ +
                        static_cast<size_t>(h) * capacity_ * head_dim_,
                    live * sizeof(float));
      }
    }
  }
  BufferPool::Global().Release(std::move(arena_));
  arena_ = std::move(fresh);
  capacity_ = new_capacity;
}

void IncrementalEncoder::EnsureCapacity(int min_items) {
  if (capacity_ >= min_items) return;
  int new_capacity = std::max(capacity_ * 2, 64);
  while (new_capacity < min_items) new_capacity *= 2;
  RepackArena(new_capacity);
}

void IncrementalEncoder::ShrinkToFit() {
  if (capacity_ == 0) return;
  // Same geometric ladder EnsureCapacity climbs, so a shrink lands on a
  // capacity growth would also have produced (keeps sizes pool-friendly).
  int tight = 64;
  while (tight < num_items_) tight *= 2;
  if (tight >= capacity_) return;
  RepackArena(tight);
}

void IncrementalEncoder::ScatterKv(int block, int t, const float* k,
                                   const float* v) {
  for (int h = 0; h < num_heads_; ++h) {
    std::memcpy(KeyPanel(block, h) + static_cast<size_t>(t) * head_dim_,
                k + h * head_dim_, head_dim_ * sizeof(float));
    std::memcpy(ValuePanel(block, h) + static_cast<size_t>(t) * head_dim_,
                v + h * head_dim_, head_dim_ * sizeof(float));
  }
}

void IncrementalEncoder::LinearRow(const std::vector<float>& x,
                                   const Tensor& weight, const Tensor& bias,
                                   std::vector<float>* y) {
  const int in = weight.rows(), out = weight.cols();
  KVEC_DCHECK(static_cast<int>(x.size()) >= in);
  if (static_cast<int>(y->size()) < out) y->resize(out);
  kernels::VecMat(x.data(), weight.data().data(), y->data(), in, out,
                  /*accumulate=*/false);
  if (bias.defined()) {
    const float* b = bias.data().data();
    for (int j = 0; j < out; ++j) (*y)[j] += b[j];
  }
}

void IncrementalEncoder::LayerNormRow(const Tensor& gamma, const Tensor& beta,
                                      float* x, int n) {
  float mean = 0.0f;
  for (int i = 0; i < n; ++i) mean += x[i];
  mean /= static_cast<float>(n);
  float var = 0.0f;
  for (int i = 0; i < n; ++i) var += (x[i] - mean) * (x[i] - mean);
  var /= static_cast<float>(n);
  const float inv_std = 1.0f / std::sqrt(var + 1e-5f);
  const float* g = gamma.data().data();
  const float* be = beta.data().data();
  for (int i = 0; i < n; ++i) {
    x[i] = g[i] * (x[i] - mean) * inv_std + be[i];
  }
}

void IncrementalEncoder::AttendRow(int block,
                                   const MaskedSelfAttention& attention,
                                   const float* q,
                                   const std::vector<int>& targets,
                                   float* out) {
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  const size_t count = targets.size();
  if (scores_.size() < count) scores_.resize(count);
  // Per head: the K/V panels are contiguous [t, head_dim] blocks, so each
  // gathered row is one sequential head_dim-long read.
  for (int head = 0; head < num_heads_; ++head) {
    const float* kp = KeyPanel(block, head);
    const float* vp = ValuePanel(block, head);
    const float* qh = q + head * head_dim_;
    float max_score = -1e30f;
    for (size_t s = 0; s < count; ++s) {
      scores_[s] = kernels::Dot(
                       qh, kp + static_cast<size_t>(targets[s]) * head_dim_,
                       head_dim_) *
                   scale;
      max_score = std::max(max_score, scores_[s]);
    }
    float total = 0.0f;
    for (size_t s = 0; s < count; ++s) {
      scores_[s] = std::exp(scores_[s] - max_score);
      total += scores_[s];
    }
    float* oh = out + head * head_dim_;
    std::fill(oh, oh + head_dim_, 0.0f);
    for (size_t s = 0; s < count; ++s) {
      const float w = scores_[s] / total;
      const float* vj = vp + static_cast<size_t>(targets[s]) * head_dim_;
      for (int c = 0; c < head_dim_; ++c) oh[c] += w * vj[c];
    }
  }
}

void IncrementalEncoder::WritePanels(BinaryWriter* writer, int begin,
                                     bool tail) const {
  KVEC_DCHECK(begin >= 0 && begin <= num_items_ && (tail || begin == 0));
  writer->WriteInt32(dim_);
  writer->WriteInt32(head_dim_);
  writer->WriteInt32(num_heads_);
  writer->WriteInt32(static_cast<int>(encoder_.blocks().size()));
  if (tail) writer->WriteInt32(begin);
  writer->WriteInt32(num_items_);
  const size_t skip = static_cast<size_t>(begin) * head_dim_;
  const size_t rows = static_cast<size_t>(num_items_ - begin) * head_dim_;
  const size_t block_stride = 2 * static_cast<size_t>(capacity_) * dim_;
  for (size_t b = 0; b < encoder_.blocks().size(); ++b) {
    for (int h = 0; h < num_heads_; ++h) {
      const float* keys = arena_.data() + b * block_stride +
                          static_cast<size_t>(h) * capacity_ * head_dim_;
      const float* values = keys + static_cast<size_t>(capacity_) * dim_;
      writer->WriteFloats(keys + skip, rows);
      writer->WriteFloats(values + skip, rows);
    }
  }
}

bool IncrementalEncoder::ReadPanels(BinaryReader* reader, bool tail,
                                    int expected_items) {
  const int num_blocks = static_cast<int>(encoder_.blocks().size());
  const int dim = reader->ReadInt32();
  const int head_dim = reader->ReadInt32();
  const int num_heads = reader->ReadInt32();
  const int blocks = reader->ReadInt32();
  const int begin = tail ? reader->ReadInt32() : 0;
  const int num_items = reader->ReadInt32();
  if (!reader->ok() || dim != dim_ || head_dim != head_dim_ ||
      num_heads != num_heads_ || blocks != num_blocks ||
      (tail && begin != num_items_) || num_items < begin ||
      num_items != expected_items) {
    return false;
  }
  // Stage all panels before touching the arena: a truncated stream must not
  // leave a half-restored cache behind.
  const size_t rows = static_cast<size_t>(num_items - begin) * head_dim_;
  std::vector<std::vector<float>> panels;
  panels.reserve(static_cast<size_t>(num_blocks) * num_heads_ * 2);
  for (int i = 0; i < num_blocks * num_heads_ * 2; ++i) {
    panels.push_back(reader->ReadFloatVector());
    if (!reader->ok() || panels.back().size() != rows) return false;
  }

  if (num_items > 0) EnsureCapacity(num_items);
  const size_t skip = static_cast<size_t>(begin) * head_dim_;
  size_t next = 0;
  for (int b = 0; b < num_blocks; ++b) {
    for (int h = 0; h < num_heads_; ++h) {
      if (rows > 0) {
        std::memcpy(KeyPanel(b, h) + skip, panels[next].data(),
                    rows * sizeof(float));
        std::memcpy(ValuePanel(b, h) + skip, panels[next + 1].data(),
                    rows * sizeof(float));
      }
      next += 2;
    }
  }
  num_items_ = num_items;
  return true;
}

std::vector<float> IncrementalEncoder::AppendItem(
    const Item& item, int position_in_key, const std::vector<int>& visible) {
  const int t = num_items_;
  EnsureCapacity(t + 1);
  num_items_ = t + 1;

  // ---- Input embedding row: sum of the four embedding families. This
  // mirrors InputEmbedding::Forward for a single item; the batch-vs-
  // incremental equivalence test keeps the two in sync. ----
  float* x = x_.Ensure(dim_);
  std::fill(x, x + dim_, 0.0f);
  encoder_.input_embedding().AccumulateItemRow(item, position_in_key, t, x);

  // ---- Attention blocks. ----
  targets_.assign(visible.begin(), visible.end());
  targets_.push_back(t);
  for (size_t b = 0; b < encoder_.blocks().size(); ++b) {
    const AttentionBlock& block = encoder_.blocks()[b];
    const MaskedSelfAttention& attention = block.attention();

    LinearRow(x_.vec(), attention.query().weight(), Tensor(), &q_.vec());
    LinearRow(x_.vec(), attention.key().weight(), Tensor(), &k_.vec());
    LinearRow(x_.vec(), attention.value().weight(), Tensor(), &v_.vec());
    ScatterKv(static_cast<int>(b), t, k_.data(), v_.data());

    // Scores over the visible set plus self, independently per head (the
    // heads read disjoint panels of the arena).
    float* attended = attended_.Ensure(dim_);
    AttendRow(static_cast<int>(b), attention, q_.data(), targets_, attended);
    if (attention.output_projection() != nullptr) {
      LinearRow(attended_.vec(), attention.output_projection()->weight(),
                Tensor(), &mixed_.vec());
      attended = mixed_.data();
    }

    // Residual + LN, FFN, residual + LN (no dropout at inference).
    float* h = h_.Ensure(dim_);
    for (int c = 0; c < dim_; ++c) h[c] = x[c] + attended[c];
    LayerNormRow(block.norm_attention().gamma(), block.norm_attention().beta(),
                 h, dim_);
    LinearRow(h_.vec(), block.ffn().first().weight(),
              block.ffn().first().bias(), &hidden_.vec());
    const int ffn_dim = block.ffn().first().weight().cols();
    float* hidden = hidden_.data();
    for (int c = 0; c < ffn_dim; ++c) {
      hidden[c] = hidden[c] > 0.0f ? hidden[c] : 0.0f;
    }
    LinearRow(hidden_.vec(), block.ffn().second().weight(),
              block.ffn().second().bias(), &f_.vec());
    float* f = f_.data();
    for (int c = 0; c < dim_; ++c) f[c] += h[c];
    LayerNormRow(block.norm_ffn().gamma(), block.norm_ffn().beta(), f, dim_);

    std::memcpy(x, f, dim_ * sizeof(float));
  }
  return std::vector<float>(x, x + dim_);
}

void IncrementalEncoder::AppendBatch(const Item* items,
                                     const int* positions_in_key,
                                     const std::vector<int>* visibles,
                                     int batch, std::vector<float>* rows) {
  KVEC_CHECK_GT(batch, 0);
  const int t0 = num_items_;
  EnsureCapacity(t0 + batch);
  num_items_ = t0 + batch;
  const int d = dim_;
  const size_t panel = static_cast<size_t>(batch) * d;

  // All batch panels are bump allocations from the per-engine scratch
  // arena; nothing here survives the call (the owner also calls
  // ResetScratch() after the microbatch drains).
  scratch_.Reset();

  int max_ffn_dim = 0;
  for (const AttentionBlock& block : encoder_.blocks()) {
    max_ffn_dim = std::max(max_ffn_dim, block.ffn().first().weight().cols());
  }

  float* x = scratch_.AllocArray<float>(panel);
  float* q = scratch_.AllocArray<float>(panel);
  float* k = scratch_.AllocArray<float>(panel);
  float* v = scratch_.AllocArray<float>(panel);
  float* att_panel = scratch_.AllocArray<float>(panel);
  float* mixed_panel = scratch_.AllocArray<float>(panel);
  float* h = scratch_.AllocArray<float>(panel);
  float* hidden = scratch_.AllocArray<float>(
      static_cast<size_t>(batch) * std::max(max_ffn_dim, 1));
  float* f = scratch_.AllocArray<float>(panel);

  // ---- Input embedding rows, stacked into X [batch, d]. ----
  std::fill(x, x + panel, 0.0f);
  for (int i = 0; i < batch; ++i) {
    encoder_.input_embedding().AccumulateItemRow(
        items[i], positions_in_key[i], t0 + i, x + static_cast<size_t>(i) * d);
  }

  // ---- Attention blocks: one GemmNN per projection per block instead of
  // `batch` VecMats; attention gathers and layer norms stay per-row. ----
  for (size_t b = 0; b < encoder_.blocks().size(); ++b) {
    const AttentionBlock& block = encoder_.blocks()[b];
    const MaskedSelfAttention& attention = block.attention();
    kernels::GemmNN(x, attention.query().weight().data().data(), q, batch, d,
                    d, /*accumulate=*/false);
    kernels::GemmNN(x, attention.key().weight().data().data(), k, batch, d, d,
                    /*accumulate=*/false);
    kernels::GemmNN(x, attention.value().weight().data().data(), v, batch, d,
                    d, /*accumulate=*/false);
    // Cache every row before any attention runs: later batch items may have
    // earlier ones in their visible sets.
    for (int i = 0; i < batch; ++i) {
      ScatterKv(static_cast<int>(b), t0 + i, k + static_cast<size_t>(i) * d,
                v + static_cast<size_t>(i) * d);
    }

    float* att = att_panel;
    for (int i = 0; i < batch; ++i) {
      targets_.assign(visibles[i].begin(), visibles[i].end());
      targets_.push_back(t0 + i);
      AttendRow(static_cast<int>(b), attention, q + static_cast<size_t>(i) * d,
                targets_, att + static_cast<size_t>(i) * d);
    }
    if (attention.output_projection() != nullptr) {
      kernels::GemmNN(att, attention.output_projection()->weight().data().data(),
                      mixed_panel, batch, d, d, /*accumulate=*/false);
      att = mixed_panel;
    }

    // Residual + LN, FFN (batched GEMMs), residual + LN.
    for (size_t e = 0; e < panel; ++e) h[e] = x[e] + att[e];
    for (int i = 0; i < batch; ++i) {
      LayerNormRow(block.norm_attention().gamma(),
                   block.norm_attention().beta(),
                   h + static_cast<size_t>(i) * d, d);
    }

    const Linear& ffn1 = block.ffn().first();
    const Linear& ffn2 = block.ffn().second();
    const int ffn_dim = ffn1.weight().cols();
    const size_t hidden_panel = static_cast<size_t>(batch) * ffn_dim;
    kernels::GemmNN(h, ffn1.weight().data().data(), hidden, batch, d, ffn_dim,
                    /*accumulate=*/false);
    if (ffn1.bias().defined()) {
      kernels::AddBiasRows(hidden, ffn1.bias().data().data(), batch, ffn_dim);
    }
    for (size_t e = 0; e < hidden_panel; ++e) {
      hidden[e] = hidden[e] > 0.0f ? hidden[e] : 0.0f;
    }
    kernels::GemmNN(hidden, ffn2.weight().data().data(), f, batch, ffn_dim, d,
                    /*accumulate=*/false);
    if (ffn2.bias().defined()) {
      kernels::AddBiasRows(f, ffn2.bias().data().data(), batch, d);
    }
    for (size_t e = 0; e < panel; ++e) f[e] += h[e];
    for (int i = 0; i < batch; ++i) {
      LayerNormRow(block.norm_ffn().gamma(), block.norm_ffn().beta(),
                   f + static_cast<size_t>(i) * d, d);
    }

    // The block's output panel is the next block's input panel.
    std::swap(x, f);
  }

  rows->assign(x, x + panel);
}

}  // namespace kvec
