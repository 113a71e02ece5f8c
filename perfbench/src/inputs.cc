#include "inputs.h"

#include <deque>

#include "cli/model_io.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/generator.h"

namespace perf {
namespace {

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> workloads;

  // Encoder-bound: the trained USTC model through one synchronous shard.
  WorkloadSpec replay;
  replay.name = "replay-encoder";
  replay.loop = LoopKind::kReplay;
  replay.model = ModelKind::kUstc;
  replay.preset = kvec::PresetId::kUstcTfc2016;
  replay.episodes = 1400;
  replay.tenants = 16;
  replay.batch = 64;
  replay.shards = 1;
  replay.probe_rate = 20000;
  workloads.push_back(replay);

  // Decision-, allocator- and handoff-bound: a tiny model on many short
  // tangled keys, bounds tight enough that every close cause fires and
  // pool compaction runs.
  WorkloadSpec sharded;
  sharded.name = "decision-sharded";
  sharded.loop = LoopKind::kSubmit;
  sharded.model = ModelKind::kTiny;
  sharded.preset = kvec::PresetId::kTrafficApp;
  sharded.episodes = 3000;
  sharded.tenants = 48;
  sharded.batch = 64;
  sharded.shards = 3;
  sharded.queue_depth = 4;
  sharded.shard.max_window_items = 2048;
  sharded.shard.idle_timeout = 192;
  sharded.shard.idle_check_interval = 16;
  sharded.shard.max_open_keys = 16;
  sharded.shard.compaction_check_interval = 1024;
  sharded.shard.compaction_fragmentation_threshold = 1.5;
  sharded.shard.compaction_min_bytes = 128 << 10;
  sharded.probe_rate = 40000;
  workloads.push_back(sharded);

  return workloads;
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> workloads = BuildWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Stream MakeStream(const WorkloadSpec& spec, uint64_t seed) {
  std::unique_ptr<kvec::EpisodeGenerator> generator =
      kvec::MakeGenerator(spec.preset, kvec::ExperimentScale::kSmall);
  kvec::Dataset dataset = kvec::GenerateDataset(
      *generator, kvec::SplitCounts::FromTotal(spec.episodes), seed);
  std::vector<const kvec::TangledSequence*> episodes;
  for (const auto* split : {&dataset.train, &dataset.validation, &dataset.test}) {
    for (const kvec::TangledSequence& episode : *split) {
      episodes.push_back(&episode);
    }
  }

  Stream stream;
  stream.num_classes = dataset.spec.num_classes;
  stream.num_value_fields = dataset.spec.num_value_fields();
  const int stride = dataset.spec.max_keys_per_episode;
  stream.key_span = stride * static_cast<int>(episodes.size());

  struct Slot {
    int episode;
    size_t position;
  };
  std::deque<int> pending;
  for (int e = 0; e < static_cast<int>(episodes.size()); ++e) {
    pending.push_back(e);
  }
  std::vector<Slot> slots;
  while (static_cast<int>(slots.size()) < spec.tenants && !pending.empty()) {
    slots.push_back({pending.front(), 0});
    pending.pop_front();
  }
  while (!slots.empty()) {
    for (size_t s = 0; s < slots.size();) {
      Slot& slot = slots[s];
      const kvec::TangledSequence& episode = *episodes[slot.episode];
      kvec::Item item = episode.items[slot.position++];
      const int global_key = item.key + slot.episode * stride;
      stream.label[global_key] = episode.labels.at(item.key);
      ++stream.length[global_key];
      item.key = global_key;
      stream.items.push_back(std::move(item));
      if (slot.position < episode.items.size()) {
        ++s;
      } else if (!pending.empty()) {
        slot = {pending.front(), 0};
        pending.pop_front();
        ++s;
      } else {
        // The stream ends when the episodes run out, with the other tenants
        // mid-episode, so keys are still open for the final Flush.
        return stream;
      }
    }
  }
  return stream;
}

std::string ModelFileName(ModelKind kind) {
  return kind == ModelKind::kUstc ? "ustc-embed32-2blocks.kvm"
                                  : "traffic-app-embed8-1block.kvm";
}

bool TrainModel(ModelKind kind, const std::string& path, std::string* error) {
  // Fixed training data and seed: the model is part of the benchmark's
  // build, identical for every workload seed.
  constexpr uint64_t kTrainingDataSeed = 7;
  const kvec::PresetId preset = kind == ModelKind::kUstc
                                    ? kvec::PresetId::kUstcTfc2016
                                    : kvec::PresetId::kTrafficApp;
  kvec::Dataset dataset = kvec::MakePresetDataset(
      preset, kvec::ExperimentScale::kSmall, kTrainingDataSeed);
  kvec::KvecConfig config = kvec::KvecConfig::ForSpec(dataset.spec);
  if (kind == ModelKind::kTiny) {
    config.embed_dim = 8;
    config.state_dim = 12;
    config.num_blocks = 1;
    config.ffn_hidden_dim = 16;
    config.epochs = 6;
  }
  kvec::KvecModel model(config);
  kvec::KvecTrainer trainer(&model);
  // Model selection on the validation split, as `kvec train` does: the
  // last epoch alone can settle on never halting.
  trainer.TrainWithValidation(dataset.train, dataset.validation);
  if (!kvec::cli::SaveModelBundle(path, &model)) {
    *error = "cannot write model bundle " + path;
    return false;
  }
  return true;
}

}  // namespace perf
