// kvec_perf: the serving benchmark's main program (see perfbench/README.md).
//
//   kvec_perf train --model-dir DIR
//       Trains the model bundles the workloads serve, skipping any that
//       already exist.
//   kvec_perf run --workload NAME --seed N --seconds S --trace 0|1
//                 --model-dir DIR --scratch DIR [--trace-dir DIR]
//                 [--git-sha SHA]
//       Runs one workload and prints, as its last line, one JSON object
//       with the keys correct, attempted, failed and metrics. --trace 0
//       prints the end-to-end metrics; --trace 1 the per-layer metrics.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "check.h"
#include "cli/model_io.h"
#include "inputs.h"
#include "layer_walk.h"
#include "perf_common.h"
#include "serve.h"
#include "util/thread_pool.h"

namespace perf {
namespace {

// Setups measured before each closed-loop pass, so that the set-ups of one
// run are spread over all of it; the median of them all is reported.
constexpr int kSetupsPerPass = 4;
// Closed-loop passes per run never drop below this, however short --seconds.
constexpr int kMinPasses = 3;
// Items of the stream prefix the traced run replays through the layer walk
// and the frame codec.
constexpr size_t kProbeItems = 60000;
// Schedule length of the traced run's net probe.
constexpr double kNetProbeSeconds = 4.0;
// Intra-op threads: one, so shard parallelism is the only parallelism.
constexpr int kIntraOpThreads = 1;

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    args->flags[flag.substr(2)] = argv[i + 1];
  }
  return true;
}

// Records why the run is not correct; the first reason is kept.
struct Verdict {
  std::string error;
  void Fail(const std::string& reason) {
    if (error.empty() && !reason.empty()) error = reason;
  }
};

void PrintResult(const Verdict& verdict, int64_t attempted, int64_t failed,
                 const MetricList& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (verdict.error.empty() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics.entries()) {
    out << (first ? "" : ", ") << "\"" << JsonEscape(name)
        << "\": {\"value\": " << JsonNumber(value.first) << ", \"unit\": \""
        << JsonEscape(value.second) << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// Cold start to ready: load the model bundle and build the server (its
// shard workers started, for a sharded workload). Appends one time per set-up.
void MeasureSetups(const WorkloadSpec& spec, const std::string& model_path,
                   int repetitions, std::vector<double>* seconds,
                   Verdict* verdict) {
  for (int r = 0; r < repetitions; ++r) {
    const int64_t start = NowNs();
    std::string error;
    std::unique_ptr<kvec::KvecModel> model =
        kvec::cli::LoadModelBundle(model_path, &error);
    if (model == nullptr) {
      verdict->Fail("model bundle: " + error);
      return;
    }
    if (spec.loop == LoopKind::kReplay) {
      kvec::StreamServer server(*model, spec.shard);
      seconds->push_back(static_cast<double>(NowNs() - start) / 1e9);
    } else {
      kvec::ShardedStreamServer server(*model, ShardedConfig(spec));
      seconds->push_back(static_cast<double>(NowNs() - start) / 1e9);
    }
  }
}

// The paper's serving quantities over each key's first verdict: accuracy,
// and earliness = observed items at the verdict / the key's stream length.
void Quality(const Reference& reference, const Stream& stream,
             double* accuracy, double* earliness) {
  std::unordered_set<int> judged;
  int64_t correct = 0;
  double early = 0.0;
  for (const auto& shard : reference.per_shard) {
    for (const kvec::StreamEvent& event : shard) {
      if (!judged.insert(event.key).second) continue;
      if (event.predicted_label == stream.label.at(event.key)) ++correct;
      early += static_cast<double>(event.observed_items) /
               stream.length.at(event.key);
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(judged.size()));
  *accuracy = correct / n;
  *earliness = early / n;
}

void CheckInvariant(const kvec::StreamServerStats& stats, int64_t expected,
                    bool sharded, Verdict* verdict) {
  if (stats.items_processed != expected) {
    verdict->Fail("processed " + std::to_string(stats.items_processed) +
                  " items, expected " + std::to_string(expected));
  }
  if (sharded &&
      stats.items_submitted != stats.items_processed + stats.items_shed) {
    verdict->Fail("items_submitted " + std::to_string(stats.items_submitted) +
                  " != items_processed + items_shed");
  }
}

void CheckAgainst(const Reference& reference, const ShardEvents& events,
                  int num_classes, Verdict* verdict) {
  verdict->Fail(reference.violation);
  verdict->Fail(CompareVerdicts(reference, events));
  verdict->Fail(SelfTestCheck(reference, events, num_classes));
}

double MaxOverMean(const std::vector<int64_t>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  int64_t max = 0;
  for (int64_t v : values) {
    sum += static_cast<double>(v);
    max = std::max(max, v);
  }
  return sum > 0 ? max / (sum / values.size()) : 0.0;
}

double MaxOf(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

// Closed-loop timing figures. Every pass is cut at the same batch
// boundaries into positions of kPositionBatches consecutive batches; the last
// position holds the leftover batches and the final Drain/Flush. A position
// is timed from the return of the call before it to the return of its last
// call. The run keeps, for each position, its fastest pass and the verdict
// latencies that pass carried there: items_per_s is the stream's items over
// the sum of the kept times, and the verdict percentiles are taken over the
// kept latencies. Every position is in the sum, so each cost the program pays
// somewhere in the stream (a compaction, a window rotation, the Flush) is in
// the figures; taking the best pass per position rejects the host's own
// noise, a per-core speed that on shared VMs swings by tens of percent for
// seconds at a time. The whole-pass median rate is printed in run_info.
// A position must be much longer than a sharded server's queues hold (shards
// x queue_depth sub-batches), or the best pass at a position would be the one
// whose backlog the previous position happened to absorb.
constexpr size_t kPositionBatches = 32;

class BestPositions {
 public:
  void Add(const PassResult& pass) {
    const size_t full = pass.batch_end_ns.size() / kPositionBatches;
    if (positions_.empty()) positions_.resize(full + 1);
    std::vector<std::vector<double>> latencies(full + 1);
    for (size_t i = 0; i < pass.verdict_us.size(); ++i) {
      const size_t p = static_cast<size_t>(pass.verdict_batch[i]) / kPositionBatches;
      latencies[std::min(p, full)].push_back(pass.verdict_us[i]);
    }
    int64_t begin_ns = pass.start_ns;
    for (size_t p = 0; p <= full; ++p) {
      const int64_t end_ns = p < full
                                 ? pass.batch_end_ns[(p + 1) * kPositionBatches - 1]
                                 : pass.end_ns;
      if (end_ns - begin_ns < positions_[p].ns) {
        positions_[p].ns = end_ns - begin_ns;
        positions_[p].latencies = std::move(latencies[p]);
      }
      begin_ns = end_ns;
    }
  }

  int positions() const { return static_cast<int>(positions_.size()); }

  double ItemsPerSecond(int64_t items) const {
    int64_t ns = 0;
    for (const Position& position : positions_) ns += position.ns;
    return ns > 0 ? static_cast<double>(items) / (static_cast<double>(ns) / 1e9)
                  : 0.0;
  }

  std::vector<double> Latencies() const {
    std::vector<double> all;
    for (const Position& position : positions_) {
      all.insert(all.end(), position.latencies.begin(),
                 position.latencies.end());
    }
    return all;
  }

 private:
  struct Position {
    int64_t ns = std::numeric_limits<int64_t>::max();
    std::vector<double> latencies;
  };
  std::vector<Position> positions_;
};

struct RunContext {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string model_path;
  std::string scratch;    // checkpoint chains; deleted by the caller
  std::string trace_dir;  // where the traced run writes its spans
  std::string git_sha;
};

// What a run serves, built once per run.
struct Served {
  const WorkloadSpec& spec;
  const Stream& stream;
  const kvec::KvecModel& model;
  // Routes keys for the reference and the layer walk with the hash the
  // sharded server applies (a bare StreamServer is one shard).
  const kvec::ShardedStreamServer& router;
  std::vector<std::vector<kvec::Item>> batches;

  std::function<int(int)> shard_of() const {
    return [this](int key) { return router.ShardOf(key); };
  }
  bool sharded() const { return spec.loop != LoopKind::kReplay; }
  int64_t items() const { return static_cast<int64_t>(stream.items.size()); }
};

// Everything a run reports.
struct Outcome {
  Verdict verdict;
  MetricList metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  int passes = 0;
  int64_t verdict_samples = 0;
  int positions = 0;                    // closed loops: timed positions
  double whole_pass_items_per_s = 0.0;  // closed loops: median whole pass
};

Reference ReferenceOf(const Served& served) {
  return BuildReference(served.model, served.spec.shard, served.spec.shards,
                        served.shard_of(), served.stream.items);
}

// One closed-loop pass of the workload with a fresh server.
PassResult ClosedPass(const Served& served, SpanRecorder* spans,
                      Outcome* outcome) {
  PassResult pass =
      served.spec.loop == LoopKind::kReplay
          ? ReplayPass(served.model, served.spec, served.batches, spans)
          : SubmitPass(served.model, served.spec, served.batches, spans, "");
  CheckInvariant(pass.stats, served.items(), served.sharded(),
                 &outcome->verdict);
  outcome->attempted += pass.items;
  outcome->failed += pass.stats.items_shed;
  ++outcome->passes;
  return pass;
}

// The --trace 0 run: every end-to-end metric, spans off. Each pass is
// checked as soon as it ends and then dropped, so peak_rss_mb does not grow
// with the number of passes.
void MeasureEndToEnd(const RunContext& ctx, const Served& served,
                     Outcome* outcome) {
  const Stream& stream = served.stream;
  const Reference reference = ReferenceOf(served);
  SpanRecorder no_spans(false);
  std::vector<double> setup_seconds;
  std::vector<double> pass_rates;
  BestPositions best;
  const int64_t start = NowNs();
  while (outcome->passes < kMinPasses ||
         static_cast<double>(NowNs() - start) / 1e9 < ctx.seconds) {
    MeasureSetups(served.spec, ctx.model_path, kSetupsPerPass, &setup_seconds,
                  &outcome->verdict);
    const PassResult pass = ClosedPass(served, &no_spans, outcome);
    CheckAgainst(reference, pass.events, stream.num_classes,
                 &outcome->verdict);
    pass_rates.push_back(pass.items / pass.seconds);
    best.Add(pass);
  }
  const double peak_rss = PeakRssMb();
  double accuracy = 0.0;
  double earliness = 0.0;
  Quality(reference, stream, &accuracy, &earliness);
  const std::vector<double> latencies = best.Latencies();
  outcome->verdict_samples = static_cast<int64_t>(latencies.size());
  outcome->positions = best.positions();
  outcome->whole_pass_items_per_s = Median(pass_rates);

  MetricList& metrics = outcome->metrics;
  metrics.Add("setup_s", Median(setup_seconds), "s");
  metrics.Add("items_per_s", best.ItemsPerSecond(served.items()), "items/s");
  metrics.Add("verdict_p50_us", Percentile(latencies, 0.50), "us");
  metrics.Add("verdict_p99_us", Percentile(latencies, 0.99), "us");
  metrics.Add("delivered_frac",
              outcome->attempted > 0
                  ? 1.0 - static_cast<double>(outcome->failed) /
                              outcome->attempted
                  : 0.0,
              "fraction");
  metrics.Add("serving_accuracy", accuracy, "fraction");
  metrics.Add("earliness", earliness, "fraction");
  metrics.Add("peak_rss_mb", peak_rss, "MB");
}

// The --trace 1 run: the workload with spans, its tracing overhead, the
// probes and the layer walk (see perfbench/README.md), then every
// per-layer metric.
void MeasureLayers(const RunContext& ctx, const Served& served,
                   Outcome* outcome) {
  const WorkloadSpec& spec = served.spec;
  const Stream& stream = served.stream;
  Verdict& verdict = outcome->verdict;
  SpanRecorder spans(true);
  SpanRecorder no_spans(false);
  const std::vector<kvec::Item> prefix_items(
      stream.items.begin(),
      stream.items.begin() +
          static_cast<long>(std::min(stream.items.size(), kProbeItems)));
  const auto prefix_batches = CutBatches(prefix_items, spec.batch);

  // Untraced and traced passes alternate so drift hits both alike.
  std::vector<double> untraced;
  std::vector<double> traced;
  const Reference reference = ReferenceOf(served);
  const int64_t start = NowNs();
  PassResult last;
  while (traced.size() < 2 ||
         static_cast<double>(NowNs() - start) / 1e9 < 0.5 * ctx.seconds) {
    PassResult plain = ClosedPass(served, &no_spans, outcome);
    untraced.push_back(plain.items / plain.seconds);
    last = ClosedPass(served, &spans, outcome);
    traced.push_back(last.items / last.seconds);
    CheckAgainst(reference, plain.events, stream.num_classes, &verdict);
    CheckAgainst(reference, last.events, stream.num_classes, &verdict);
  }
  const double overhead_pct = (Median(untraced) / Median(traced) - 1.0) * 100.0;
  const kvec::StreamServerStats workload_stats = last.stats;
  PassResult probe = SubmitPass(served.model, spec, served.batches, &spans,
                                ctx.scratch + "/probe-chain.ckpt");
  const CheckpointStats checkpoints = std::move(probe.checkpoints);
  if (checkpoints.failures > 0) {
    verdict.Fail(std::to_string(checkpoints.failures) +
                 " CheckpointIncremental writes failed");
  }
  // The Submit-path figures: the workload's own pass when it submits.
  const PassResult sharded_source =
      spec.loop == LoopKind::kSubmit ? std::move(last) : std::move(probe);
  const NetProbeResult net_run = RunNetProbe(served.model, spec, stream,
                                             kNetProbeSeconds, &spans);
  verdict.Fail(net_run.error);
  outcome->attempted += net_run.items_sent;
  outcome->failed += net_run.items_failed;
  CheckInvariant(sharded_source.stats, sharded_source.items, true, &verdict);

  const LayerTimes walk = WalkLayers(served.model, spec, prefix_items,
                                     spec.shards, served.shard_of());
  std::string frame_error;
  const FrameTimes frames = WalkFrames(prefix_batches, &frame_error);
  verdict.Fail(frame_error);

  const double items = static_cast<double>(std::max<int64_t>(1, walk.items));
  const double frame_items =
      static_cast<double>(std::max<int64_t>(1, frames.items));
  const double acquires =
      static_cast<double>(std::max<uint64_t>(1, walk.pool_acquires));
  const double shard_ns_per_item = walk.stream_server_ns / items;
  const double parallel_efficiency =
      sharded_source.seconds > 0
          ? shard_ns_per_item * static_cast<double>(sharded_source.items) /
                (spec.shards * sharded_source.seconds * 1e9)
          : 0.0;
  auto count = [](int64_t value) { return static_cast<double>(value); };

  MetricList& m = outcome->metrics;
  m.Add("net.frame.encode_ns_per_item", frames.encode_ns / frame_items, "ns");
  m.Add("net.frame.decode_ns_per_item", frames.decode_ns / frame_items, "ns");
  m.Add("net.client.call_us_p50", Percentile(net_run.call_us, 0.50), "us");
  m.Add("net.client.call_us_p99", Percentile(net_run.call_us, 0.99), "us");
  m.Add("net.client.acked_items_per_s", net_run.acked_items_per_s, "items/s");
  m.Add("net.client.late_us_p99", Percentile(net_run.late_us, 0.99), "us");
  m.Add("net.server.items_shed", count(net_run.server_items_shed), "count");
  m.Add("net.server.errors_sent", count(net_run.server_errors_sent), "count");
  // The client never resends a batch (see RunNetProbe), so a failure shows
  // in `failed` rather than as a retry.
  m.Add("net.client.retries", 0.0, "count");
  m.Add("sharded.submit_us_p50", Percentile(sharded_source.submit_us, 0.50),
        "us");
  m.Add("sharded.submit_us_p99", Percentile(sharded_source.submit_us, 0.99),
        "us");
  m.Add("sharded.batch_done_us_p99",
        Percentile(sharded_source.batch_done_us, 0.99), "us");
  m.Add("sharded.drain_ms", sharded_source.drain_ms, "ms");
  m.Add("sharded.shard_skew", MaxOverMean(sharded_source.shard_items), "ratio");
  m.Add("sharded.parallel_efficiency", parallel_efficiency, "ratio");
  m.Add("stream_server.observe_ns_per_item", shard_ns_per_item, "ns");
  m.Add("stream_server.bookkeeping_ns_per_item",
        (walk.stream_server_ns - walk.online_encode_ns - walk.online_decide_ns) /
            items,
        "ns");
  m.Add("stream_server.closes.policy_halt", count(workload_stats.policy_halts),
        "count");
  m.Add("stream_server.closes.idle", count(workload_stats.idle_timeouts),
        "count");
  m.Add("stream_server.closes.capacity",
        count(workload_stats.capacity_evictions), "count");
  m.Add("stream_server.closes.rotation",
        count(workload_stats.rotation_classifications), "count");
  m.Add("stream_server.closes.flush",
        count(workload_stats.flush_classifications), "count");
  m.Add("stream_server.compactions", count(workload_stats.compactions),
        "count");
  m.Add("stream_server.bytes_resident", count(workload_stats.bytes_resident),
        "bytes");
  m.Add("stream_server.checkpoint.delta_ms_p50",
        Percentile(checkpoints.delta_ms, 0.50), "ms");
  m.Add("stream_server.checkpoint.delta_ms_max", MaxOf(checkpoints.delta_ms),
        "ms");
  m.Add("stream_server.checkpoint.rebase_ms", Median(checkpoints.rebase_ms),
        "ms");
  m.Add("stream_server.checkpoint.delta_bytes", Median(checkpoints.delta_bytes),
        "bytes");
  m.Add("online.encode_ns_per_item", walk.online_encode_ns / items, "ns");
  m.Add("online.decide_ns_per_item", walk.online_decide_ns / items, "ns");
  m.Add("correlation.observe_ns_per_item", walk.correlation_ns / items, "ns");
  m.Add("correlation.visible_per_item", walk.visible / items, "items");
  m.Add("encoder.append_ns_per_item", walk.encoder_ns / items, "ns");
  m.Add("encoder.gemm_flops_per_item", walk.gemm_flops / items, "flop");
  m.Add("tensor.pool_acquires_per_item", count(walk.pool_acquires) / items,
        "count");
  m.Add("tensor.pool_miss_ratio", count(walk.pool_misses) / acquires, "ratio");
  m.Add("tensor.intra_op_threads",
        kvec::ThreadPool::GlobalShared()->num_threads(), "count");
  m.Add("trace.overhead_pct", overhead_pct, "%");
  m.Add("trace.spans", count(spans.size()), "count");

  const std::string trace_path = ctx.trace_dir + "/trace-" + spec.name +
                                 "-seed" + std::to_string(ctx.seed) + ".json";
  if (!spans.WriteJson(trace_path)) verdict.Fail("cannot write " + trace_path);
  std::cerr << "spans written to " << trace_path << "\n";
}

int RunWorkload(const RunContext& ctx) {
  const WorkloadSpec& spec = *ctx.spec;
  kvec::ThreadPool::SetGlobalThreads(kIntraOpThreads);
  Outcome outcome;

  const Stream stream = MakeStream(spec, ctx.seed);
  std::string error;
  std::unique_ptr<kvec::KvecModel> model =
      kvec::cli::LoadModelBundle(ctx.model_path, &error);
  if (model == nullptr) {
    std::cerr << "kvec_perf: cannot load model bundle: " << error << "\n";
    return 1;
  }
  kvec::ShardedStreamServerConfig router_config;
  router_config.num_shards = spec.shards;
  const kvec::ShardedStreamServer router(*model, router_config);
  const Served served{spec, stream, *model, router,
                      CutBatches(stream.items, spec.batch)};

  if (ctx.trace) {
    MeasureLayers(ctx, served, &outcome);
  } else {
    MeasureEndToEnd(ctx, served, &outcome);
  }

  const Verdict& verdict = outcome.verdict;
  std::cout << "{\"run_info\": {\"workload\": \"" << spec.name
            << "\", \"seed\": " << ctx.seed << ", \"trace\": " << ctx.trace
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"workers\": " << (served.sharded() ? spec.shards : 0)
            << ", \"shards\": " << spec.shards
            << ", \"intra_op_threads\": " << kIntraOpThreads
            << ", \"git_sha\": \"" << JsonEscape(ctx.git_sha)
            << "\", \"stream_items\": " << served.items()
            << ", \"passes\": " << outcome.passes
            << ", \"verdict_samples\": " << outcome.verdict_samples
            << ", \"positions\": " << outcome.positions
            << ", \"whole_pass_items_per_s\": "
            << JsonNumber(outcome.whole_pass_items_per_s) << ", \"check\": \""
            << JsonEscape(verdict.error.empty() ? "passed" : verdict.error)
            << "\"}}" << std::endl;
  if (!verdict.error.empty()) {
    std::cerr << "kvec_perf: output check failed: " << verdict.error << "\n";
  }
  PrintResult(verdict, outcome.attempted, outcome.failed, outcome.metrics);
  return 0;
}

int Train(const Args& args) {
  const std::string dir = args.Get("model-dir", "");
  if (dir.empty()) {
    std::cerr << "kvec_perf train: --model-dir is required\n";
    return 2;
  }
  std::filesystem::create_directories(dir);
  for (ModelKind kind : {ModelKind::kUstc, ModelKind::kTiny}) {
    const std::string path = dir + "/" + ModelFileName(kind);
    if (std::filesystem::exists(path)) continue;
    // Written under a temporary name and renamed, so an interrupted
    // training never leaves a bundle that looks finished.
    const std::string partial = path + ".partial";
    std::string error;
    if (!TrainModel(kind, partial, &error)) {
      std::cerr << "kvec_perf train: " << error << "\n";
      return 1;
    }
    std::filesystem::rename(partial, path);
    std::cerr << "trained " << path << "\n";
  }
  return 0;
}

int Run(const Args& args) {
  RunContext ctx;
  ctx.spec = FindWorkload(args.Get("workload", ""));
  if (ctx.spec == nullptr) {
    std::cerr << "kvec_perf run: unknown --workload '"
              << args.Get("workload", "") << "'\n";
    return 2;
  }
  ctx.seed = std::strtoull(args.Get("seed", "1").c_str(), nullptr, 10);
  ctx.seconds = std::atof(args.Get("seconds", "10").c_str());
  ctx.trace = args.Get("trace", "0") == "1";
  ctx.git_sha = args.Get("git-sha", "unknown");
  ctx.scratch = args.Get("scratch", "");
  ctx.trace_dir = args.Get("trace-dir", ctx.scratch);
  const std::string model_dir = args.Get("model-dir", "");
  if (ctx.seconds <= 0 || ctx.scratch.empty() || model_dir.empty()) {
    std::cerr << "kvec_perf run: --seconds > 0, --scratch and --model-dir "
                 "are required\n";
    return 2;
  }
  std::filesystem::create_directories(ctx.trace_dir);
  ctx.model_path = model_dir + "/" + ModelFileName(ctx.spec->model);
  std::filesystem::create_directories(ctx.scratch);
  return RunWorkload(ctx);
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  perf::Args args;
  if (!perf::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: kvec_perf train --model-dir DIR\n"
                 "       kvec_perf run --workload NAME --seed N --seconds S "
                 "--trace 0|1 --model-dir DIR --scratch DIR [--trace-dir DIR] "
                 "[--git-sha SHA]\n";
    return 2;
  }
  if (args.command == "train") return perf::Train(args);
  if (args.command == "run") return perf::Run(args);
  std::cerr << "kvec_perf: unknown command '" << args.command << "'\n";
  return 2;
}
