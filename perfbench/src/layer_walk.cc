#include "layer_walk.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "core/correlation.h"
#include "core/encoder.h"
#include "core/online.h"
#include "core/stream_server.h"
#include "net/frame.h"
#include "perf_common.h"
#include "tensor/buffer_pool.h"
#include "tensor/tensor.h"

namespace perf {
namespace {

double LinearFlops(const kvec::Linear& linear) {
  return 2.0 * linear.in_features() * linear.out_features();
}

// Multiply-add flops of one item's projections and FFN across all blocks.
double ProjectionFlopsPerItem(const kvec::KvrlEncoder& encoder) {
  double flops = 0.0;
  for (const kvec::AttentionBlock& block : encoder.blocks()) {
    const kvec::MaskedSelfAttention& attention = block.attention();
    flops += LinearFlops(attention.query()) + LinearFlops(attention.key()) +
             LinearFlops(attention.value());
    if (attention.output_projection() != nullptr) {
      flops += LinearFlops(*attention.output_projection());
    }
    flops += LinearFlops(block.ffn().first()) + LinearFlops(block.ffn().second());
  }
  return flops;
}

// The walk's chunks: batch-sized runs of a sub-stream that never cross an
// engine window boundary (the server splits its microbatches the same way).
template <typename Fn>
void ForEachChunk(size_t n, int batch, int window, Fn fn) {
  size_t begin = 0;
  while (begin < n) {
    const size_t window_end =
        (begin / static_cast<size_t>(window) + 1) * static_cast<size_t>(window);
    const size_t end =
        std::min({n, begin + static_cast<size_t>(batch), window_end});
    fn(begin, end, begin % static_cast<size_t>(window) == 0);
    begin = end;
  }
}

double Since(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns);
}

}  // namespace

LayerTimes WalkLayers(const kvec::KvecModel& model, const WorkloadSpec& spec,
                      const std::vector<kvec::Item>& items, int num_shards,
                      const std::function<int(int key)>& shard_of) {
  kvec::InferenceMode inference;
  LayerTimes times;
  const int window = spec.shard.max_window_items;
  const int batch = spec.batch;
  const int dim = model.config().embed_dim;
  const double projection_flops = ProjectionFlopsPerItem(model.encoder());
  const int num_blocks = static_cast<int>(model.encoder().blocks().size());

  std::vector<std::vector<kvec::Item>> sub(num_shards);
  for (const kvec::Item& item : items) sub[shard_of(item.key)].push_back(item);

  for (int s = 0; s < num_shards; ++s) {
    const std::vector<kvec::Item>& stream = sub[s];
    times.items += static_cast<int64_t>(stream.size());

    // One instance per layer, rebuilt at each window start as the server's
    // engine is. The layers advance chunk by chunk in lockstep, so a change
    // in the host's speed hits every layer alike. A `mirror` server, fed
    // item at a time and untimed, finds the idle and capacity closes the
    // server makes: they halt a key in the engine and make its later
    // decisions cheap, so the online stage applies them after the same
    // items to decide what the server decides. The closes themselves are
    // bookkeeping and stay out of the online timing.
    std::unique_ptr<kvec::CorrelationTracker> tracker;
    std::unique_ptr<kvec::IncrementalEncoder> encoder;
    std::unique_ptr<kvec::OnlineClassifier> online;
    kvec::StreamServer mirror(model, spec.shard);
    kvec::StreamServer server(model, spec.shard);
    std::unordered_map<int, int> position_of_key;
    std::vector<std::vector<int>> visible(batch);
    std::vector<std::vector<int>> closes_after(batch);
    std::vector<int> positions(batch);
    std::vector<float> rows;
    ForEachChunk(stream.size(), batch, window,
                 [&](size_t begin, size_t end, bool fresh) {
      if (fresh) {
        tracker = std::make_unique<kvec::CorrelationTracker>(
            model.config().correlation);
        encoder = std::make_unique<kvec::IncrementalEncoder>(model.encoder());
        online = std::make_unique<kvec::OnlineClassifier>(model);
        position_of_key.clear();
      }
      const int count = static_cast<int>(end - begin);
      const kvec::Item* items = &stream[begin];

      int64_t start = NowNs();
      for (int i = 0; i < count; ++i) visible[i] = tracker->ObserveItem(items[i]);
      times.correlation_ns += Since(start);
      for (int i = 0; i < count; ++i) {
        times.visible += static_cast<double>(visible[i].size());
        times.gemm_flops += projection_flops +
                            num_blocks * 4.0 * dim * (visible[i].size() + 1.0);
        positions[i] = position_of_key[items[i].key]++;
      }

      start = NowNs();
      if (count == 1) {
        rows = encoder->AppendItem(items[0], positions[0], visible[0]);
      } else {
        encoder->AppendBatch(items, positions.data(), visible.data(), count,
                             &rows);
      }
      times.encoder_ns += Since(start);
      encoder->ResetScratch();

      for (int i = 0; i < count; ++i) {
        closes_after[i].clear();
        for (const kvec::StreamEvent& event : mirror.Observe(items[i])) {
          if (event.cause == kvec::StreamEvent::Cause::kIdleTimeout ||
              event.cause == kvec::StreamEvent::Cause::kCapacityEviction) {
            closes_after[i].push_back(event.key);
          }
        }
      }
      start = NowNs();
      online->EncodeBatch(items, count, &rows);
      const int64_t encoded = NowNs();
      int64_t closing_ns = 0;
      for (int i = 0; i < count; ++i) {
        online->DecideObserved(items[i].key,
                               rows.data() + static_cast<size_t>(i) * dim);
        if (!closes_after[i].empty()) {
          const int64_t close = NowNs();
          for (int key : closes_after[i]) online->ForceClassify(key);
          closing_ns += NowNs() - close;
        }
      }
      times.online_encode_ns += static_cast<double>(encoded - start);
      times.online_decide_ns += Since(encoded) - static_cast<double>(closing_ns);
      online->ResetEncodeScratch();

      const std::vector<kvec::Item> chunk(items, items + count);
      const kvec::BufferPool::Stats before = kvec::BufferPool::Global().stats();
      start = NowNs();
      server.ObserveBatch(chunk);
      times.stream_server_ns += Since(start);
      const kvec::BufferPool::Stats after = kvec::BufferPool::Global().stats();
      times.pool_acquires +=
          (after.hits - before.hits) + (after.misses - before.misses);
      times.pool_misses += after.misses - before.misses;
    });
  }
  return times;
}

FrameTimes WalkFrames(const std::vector<std::vector<kvec::Item>>& batches,
                      std::string* error) {
  namespace net = kvec::net;
  FrameTimes times;
  std::string wire;
  for (size_t b = 0; b < batches.size(); ++b) {
    const int64_t start = NowNs();
    const std::string frame =
        net::EncodeFrame({net::FrameType::kIngestBatch, b,
                          net::EncodeItems(batches[b])});
    times.encode_ns += Since(start);
    wire += frame;
    times.items += static_cast<int64_t>(batches[b].size());
  }

  // Fed in recv()-sized chunks, as the server's connection handler does.
  constexpr size_t kChunk = 16 * 1024;
  std::vector<std::vector<kvec::Item>> decoded;
  net::FrameDecoder decoder;
  const int64_t start = NowNs();
  for (size_t offset = 0; offset < wire.size(); offset += kChunk) {
    decoder.Feed(wire.data() + offset, std::min(kChunk, wire.size() - offset));
    net::Frame frame;
    std::string reason;
    while (decoder.Next(&frame, &reason) == net::FrameDecoder::Status::kFrame) {
      decoded.emplace_back();
      if (!net::DecodeItems(frame.payload, &decoded.back())) {
        *error = "frame " + std::to_string(decoded.size() - 1) +
                 " did not decode";
        return times;
      }
    }
  }
  times.decode_ns = Since(start);

  if (decoded.size() != batches.size()) {
    *error = "decoded " + std::to_string(decoded.size()) + " frames of " +
             std::to_string(batches.size());
    return times;
  }
  for (size_t b = 0; b < batches.size(); ++b) {
    if (decoded[b].size() != batches[b].size()) {
      *error = "frame " + std::to_string(b) + " changed its item count";
      return times;
    }
    for (size_t i = 0; i < batches[b].size(); ++i) {
      if (decoded[b][i].key != batches[b][i].key ||
          decoded[b][i].value != batches[b][i].value) {
        *error = "frame " + std::to_string(b) + " item " + std::to_string(i) +
                 " changed on the wire";
        return times;
      }
    }
  }
  return times;
}

}  // namespace perf
