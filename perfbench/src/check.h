// The output check every run must pass.
//
// The reference is the simplest serving path there is: one fresh
// StreamServer per shard, fed item at a time through Observe over the
// shard's sub-stream (split with ShardOf), then Flush. The run's verdicts,
// per shard and in emission order, must equal the reference's over the
// whole stream: same key, label, observed-item count and close cause, with
// the confidence within 1e-4 (the tolerance core_batch_equivalence_test
// uses).
// The reference walk also checks that no key gets two verdicts inside one
// engine window (a key whose items straddle a window rotation is closed by
// the rotation and may be judged again in the next window, by design).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/stream_server.h"

namespace perf {

using ShardEvents = std::vector<std::vector<kvec::StreamEvent>>;

struct Reference {
  ShardEvents per_shard;
  // Empty when no key had two verdicts within one engine window.
  std::string violation;
};

// Builds the reference over all of `items`, each shard's Flush events last.
Reference BuildReference(const kvec::KvecModel& model,
                         const kvec::StreamServerConfig& config,
                         int num_shards,
                         const std::function<int(int key)>& shard_of,
                         const std::vector<kvec::Item>& items);

// "" when `run` matches `reference` in full; otherwise the first difference.
std::string CompareVerdicts(const Reference& reference, const ShardEvents& run);

// Perturbs one policy-halt verdict of `run` (its label) and returns "" when
// CompareVerdicts catches it — proof, on every run, that the check can fail.
// Call it only on a run that CompareVerdicts accepted.
std::string SelfTestCheck(const Reference& reference, const ShardEvents& run,
                          int num_classes);

}  // namespace perf
