#include "check.h"

#include <cmath>
#include <map>
#include <set>
#include <utility>

namespace perf {
namespace {

constexpr double kConfidenceTolerance = 1e-4;

const char* CauseName(kvec::StreamEvent::Cause cause) {
  switch (cause) {
    case kvec::StreamEvent::Cause::kPolicyHalt:
      return "policy_halt";
    case kvec::StreamEvent::Cause::kIdleTimeout:
      return "idle";
    case kvec::StreamEvent::Cause::kCapacityEviction:
      return "capacity";
    case kvec::StreamEvent::Cause::kWindowRotation:
      return "rotation";
    case kvec::StreamEvent::Cause::kFlush:
      return "flush";
  }
  return "?";
}

std::string Describe(const kvec::StreamEvent& event) {
  return "(key " + std::to_string(event.key) + ", label " +
         std::to_string(event.predicted_label) + ", observed " +
         std::to_string(event.observed_items) + ", " +
         CauseName(event.cause) + ", confidence " +
         std::to_string(event.confidence) + ")";
}

bool SameVerdict(const kvec::StreamEvent& a, const kvec::StreamEvent& b) {
  return a.key == b.key && a.predicted_label == b.predicted_label &&
         a.observed_items == b.observed_items && a.cause == b.cause &&
         std::fabs(a.confidence - b.confidence) <= kConfidenceTolerance;
}

}  // namespace

Reference BuildReference(const kvec::KvecModel& model,
                         const kvec::StreamServerConfig& config,
                         int num_shards,
                         const std::function<int(int key)>& shard_of,
                         const std::vector<kvec::Item>& items) {
  Reference reference;
  reference.per_shard.resize(num_shards);
  std::vector<std::unique_ptr<kvec::StreamServer>> servers;
  for (int s = 0; s < num_shards; ++s) {
    servers.push_back(std::make_unique<kvec::StreamServer>(model, config));
  }
  // Window bookkeeping for the one-verdict-per-key-per-window check: the
  // engine rotates when an item arrives with max_window_items items already
  // in the window, so window w of a shard holds its items
  // [w * W, (w + 1) * W); the rotation's own closes belong to window w - 1.
  const int64_t window = config.max_window_items;
  std::vector<int64_t> position(num_shards, 0);
  std::set<std::pair<int, int64_t>> judged;  // (key, window)
  auto note = [&](const kvec::StreamEvent& event, int64_t event_window) {
    if (!judged.insert({event.key, event_window}).second &&
        reference.violation.empty()) {
      reference.violation = "key " + std::to_string(event.key) +
                            " judged twice in window " +
                            std::to_string(event_window) + ": " +
                            Describe(event);
    }
  };
  for (const kvec::Item& item : items) {
    const int s = shard_of(item.key);
    const int64_t p = position[s]++;
    for (const kvec::StreamEvent& event : servers[s]->Observe(item)) {
      const bool rotation =
          event.cause == kvec::StreamEvent::Cause::kWindowRotation;
      note(event, rotation ? p / window - 1 : p / window);
      reference.per_shard[s].push_back(event);
    }
  }
  for (int s = 0; s < num_shards; ++s) {
    const int64_t last_window = position[s] > 0 ? (position[s] - 1) / window : 0;
    for (const kvec::StreamEvent& event : servers[s]->Flush()) {
      note(event, last_window);
      reference.per_shard[s].push_back(event);
    }
  }
  return reference;
}

std::string CompareVerdicts(const Reference& reference, const ShardEvents& run) {
  if (run.size() != reference.per_shard.size()) {
    return "run has " + std::to_string(run.size()) + " shards, reference " +
           std::to_string(reference.per_shard.size());
  }
  for (size_t s = 0; s < run.size(); ++s) {
    const auto& want = reference.per_shard[s];
    const auto& got = run[s];
    if (got.size() != want.size()) {
      return "shard " + std::to_string(s) + ": run emitted " +
             std::to_string(got.size()) + " verdicts, reference " +
             std::to_string(want.size());
    }
    for (size_t e = 0; e < want.size(); ++e) {
      if (!SameVerdict(want[e], got[e])) {
        return "shard " + std::to_string(s) + " verdict " + std::to_string(e) +
               ": run " + Describe(got[e]) + ", reference " +
               Describe(want[e]);
      }
    }
  }
  return "";
}

std::string SelfTestCheck(const Reference& reference, const ShardEvents& run,
                          int num_classes) {
  // Indexing below relies on `run` having the reference's shape.
  if (!CompareVerdicts(reference, run).empty()) {
    return "the self-test needs a run that passed the check";
  }
  ShardEvents perturbed = run;
  for (size_t s = 0; s < reference.per_shard.size(); ++s) {
    for (size_t e = 0; e < reference.per_shard[s].size(); ++e) {
      kvec::StreamEvent& event = perturbed[s][e];
      if (event.cause != kvec::StreamEvent::Cause::kPolicyHalt) continue;
      event.predicted_label = (event.predicted_label + 1) % num_classes;
      if (CompareVerdicts(reference, perturbed).empty()) {
        return "the check accepted a perturbed verdict " + Describe(event);
      }
      return "";
    }
  }
  return "no policy-halt verdict to perturb";
}

}  // namespace perf
