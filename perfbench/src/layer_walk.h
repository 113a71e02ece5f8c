// The layer walk of the traced run: each shard's sub-stream (split with
// ShardOf) is replayed single-threaded through each layer's public calls,
// on fresh instances rotated at the same window as the server's engine.
// Every layer is timed with everything below it, on identical inputs, so a
// layer's self time is its time minus the time of the layer below:
//
//   correlation   CorrelationTracker::ObserveItem
//   encoder       IncrementalEncoder::AppendBatch, fed the tracker's sets
//   online        OnlineClassifier::EncodeBatch (tracker + encoder) and
//                 OnlineClassifier::DecideObserved
//   stream_server StreamServer::ObserveBatch (online + bookkeeping)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/model.h"
#include "inputs.h"

namespace perf {

struct LayerTimes {
  int64_t items = 0;
  double correlation_ns = 0.0;
  double visible = 0.0;  // total size of the sets ObserveItem returned
  double encoder_ns = 0.0;
  double gemm_flops = 0.0;  // computed from tensor shapes, not counted
  double online_encode_ns = 0.0;
  double online_decide_ns = 0.0;
  double stream_server_ns = 0.0;
  uint64_t pool_acquires = 0;  // BufferPool::Global() during StreamServer
  uint64_t pool_misses = 0;
};

LayerTimes WalkLayers(const kvec::KvecModel& model, const WorkloadSpec& spec,
                      const std::vector<kvec::Item>& items, int num_shards,
                      const std::function<int(int key)>& shard_of);

// Encodes `batches` into ingest frames and decodes them back through
// FrameDecoder + DecodeItems, timing both. Sets *error when a decoded batch
// differs from the one encoded.
struct FrameTimes {
  int64_t items = 0;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
};
FrameTimes WalkFrames(const std::vector<std::vector<kvec::Item>>& batches,
                      std::string* error);

}  // namespace perf
