// The benchmark's workloads, the streams it generates from a seed, and the
// model bundles it serves.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/stream_server.h"
#include "data/presets.h"
#include "data/types.h"

namespace perf {

enum class LoopKind {
  kReplay,  // closed loop: StreamServer::ObserveBatch on the caller thread
  kSubmit,  // closed loop: ShardedStreamServer::Submit + Drain, workers
};

enum class ModelKind {
  kUstc,  // trained USTC-shaped model: embed 32, 2 attention blocks
  kTiny,  // trained Traffic-App model: embed 8, 1 attention block
};

// Everything that defines a workload. The values live in workloads.cc; the
// reasons for each are in perfbench/README.md.
struct WorkloadSpec {
  std::string name;
  LoopKind loop = LoopKind::kReplay;
  ModelKind model = ModelKind::kUstc;
  kvec::PresetId preset = kvec::PresetId::kUstcTfc2016;
  int episodes = 0;  // episodes drawn from the generator per seed
  int tenants = 0;   // episodes interleaved concurrently in the stream
  int batch = 64;    // items per ObserveBatch / Submit / ingest frame
  int shards = 1;    // kReplay: 1 bare StreamServer; else shard workers
  int queue_depth = 8;
  kvec::StreamServerConfig shard;

  // The traced run's loopback net probe sends at this rate (items/s).
  double probe_rate = 0.0;
};

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// The interleaved stream a workload serves: `tenants` episodes are live at
// once and advance round-robin one item per turn; a finished episode's slot
// takes the next one, and the stream stops when none is left (the other
// tenants mid-episode, so keys are still open for the final Flush). Keys are
// globally unique (episode-local key plus the episode's offset), so every
// key is one key-value sequence.
struct Stream {
  std::vector<kvec::Item> items;
  std::unordered_map<int, int> label;   // key -> true class
  std::unordered_map<int, int> length;  // key -> items of the key in `items`
  int key_span = 0;                     // every key lies in [0, key_span)
  int num_classes = 0;
  int num_value_fields = 0;
};

Stream MakeStream(const WorkloadSpec& spec, uint64_t seed);

// Model bundles: trained once per build directory with a fixed seed on a
// fixed-seed dataset (never on the workload's seed), then loaded by every
// run. Returns the file name inside the model directory.
std::string ModelFileName(ModelKind kind);
// Trains the model and writes its bundle; false (with *error) on failure.
bool TrainModel(ModelKind kind, const std::string& path, std::string* error);

}  // namespace perf
