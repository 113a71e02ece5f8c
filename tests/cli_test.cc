// The `kvec` driver: flag parsing, subcommand dispatch, and the JSON
// contract of `kvec eval`.
//
// Everything runs in-process through cli::RunKvecCli — the exact code path
// of apps/kvec.cc minus the argv shim — so bad flags, usage text, and exit
// codes are asserted without spawning processes.
//
// The golden test pins the byte-exact JSON of `kvec eval --json` for a
// fixed generate→train→eval recipe (tests/data/cli_eval_golden.json).
// If the JSON schema or the evaluation pipeline changes deliberately,
// regenerate with:
//   KVEC_REGEN_GOLDEN=1 ./cli_test --gtest_filter='*EvalJsonGolden*'
// (writes the golden next to the source tree via KVEC_TEST_DATA_DIR).
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.h"
#include "cli/model_io.h"
#include "cli/subcommands.h"
#include "gtest/gtest.h"
#include "util/fault_injection.h"

namespace kvec {
namespace cli {
namespace {

#ifndef KVEC_TEST_DATA_DIR
#define KVEC_TEST_DATA_DIR "tests/data"
#endif

constexpr char kGoldenFile[] = KVEC_TEST_DATA_DIR "/cli_eval_golden.json";

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult RunCli(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.code = RunKvecCli(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

// ---- ArgParser -----------------------------------------------------------

TEST(ArgParser, ParsesEveryKindAndBothSpellings) {
  ArgParser parser("kvec test");
  std::string* name = parser.AddString("name", "default", "a string");
  int64_t* count = parser.AddInt("count", 1, "an int");
  double* rate = parser.AddDouble("rate", 0.5, "a double");
  bool* verbose = parser.AddBool("verbose", false, "a bool");
  bool* cache = parser.AddBool("cache", true, "a bool");

  ASSERT_TRUE(parser.Parse(
      {"--name", "abc", "--count=42", "--rate", "2.5", "--verbose",
       "--no-cache"}))
      << parser.error();
  EXPECT_EQ(*name, "abc");
  EXPECT_EQ(*count, 42);
  EXPECT_DOUBLE_EQ(*rate, 2.5);
  EXPECT_TRUE(*verbose);
  EXPECT_FALSE(*cache);
  EXPECT_TRUE(parser.Provided("name"));
  EXPECT_TRUE(parser.Provided("rate"));
  EXPECT_FALSE(parser.help_requested());
}

TEST(ArgParser, DefaultsSurviveAnEmptyParse) {
  ArgParser parser("kvec test");
  int64_t* count = parser.AddInt("count", 7, "an int");
  ASSERT_TRUE(parser.Parse({}));
  EXPECT_EQ(*count, 7);
  EXPECT_FALSE(parser.Provided("count"));
}

TEST(ArgParser, RejectsUnknownFlagMissingValueAndBadNumbers) {
  {
    ArgParser parser("kvec test");
    EXPECT_FALSE(parser.Parse({"--nope"}));
    EXPECT_NE(parser.error().find("unknown flag"), std::string::npos);
  }
  {
    ArgParser parser("kvec test");
    parser.AddInt("count", 1, "an int");
    EXPECT_FALSE(parser.Parse({"--count"}));
    EXPECT_NE(parser.error().find("missing its value"), std::string::npos);
  }
  {
    ArgParser parser("kvec test");
    parser.AddInt("count", 1, "an int");
    EXPECT_FALSE(parser.Parse({"--count", "abc"}));
    EXPECT_NE(parser.error().find("integer"), std::string::npos);
  }
  {
    ArgParser parser("kvec test");
    parser.AddDouble("rate", 1, "a double");
    EXPECT_FALSE(parser.Parse({"--rate", "fast"}));
    EXPECT_NE(parser.error().find("number"), std::string::npos);
  }
  {
    ArgParser parser("kvec test");
    EXPECT_FALSE(parser.Parse({"positional"}));
    EXPECT_NE(parser.error().find("unexpected argument"), std::string::npos);
  }
}

TEST(ArgParser, HelpIsAlwaysRecognisedAndUsageListsFlags) {
  ArgParser parser("kvec test");
  parser.AddString("alpha", "x", "the alpha flag");
  parser.AddBool("beta", false, "the beta flag");
  ASSERT_TRUE(parser.Parse({"--help"}));
  EXPECT_TRUE(parser.help_requested());
  const std::string usage = parser.Usage();
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("--beta"), std::string::npos);
  EXPECT_NE(usage.find("the alpha flag"), std::string::npos);
}

TEST(ArgParser, SplitCommaList) {
  EXPECT_TRUE(SplitCommaList("").empty());
  EXPECT_EQ(SplitCommaList("a"), (std::vector<std::string>{"a"}));
  EXPECT_EQ(SplitCommaList("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
}

// ---- Dispatch ------------------------------------------------------------

TEST(CliDispatch, HelpListsEverySubcommand) {
  CliResult result = RunCli({"--help"});
  EXPECT_EQ(result.code, 0);
  for (const SubcommandInfo& info : Subcommands()) {
    EXPECT_NE(result.err.find(info.name), std::string::npos)
        << "help does not mention '" << info.name << "'";
  }
}

TEST(CliDispatch, NoArgumentsIsAUsageError) {
  CliResult result = RunCli({});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("usage:"), std::string::npos);
}

TEST(CliDispatch, UnknownSubcommandFailsWithUsage) {
  CliResult result = RunCli({"frobnicate"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown subcommand"), std::string::npos);
  EXPECT_NE(result.err.find("usage:"), std::string::npos);
}

TEST(CliDispatch, SubcommandHelpShowsFlagsAndSucceeds) {
  for (const SubcommandInfo& info : Subcommands()) {
    CliResult result = RunCli({info.name, "--help"});
    EXPECT_EQ(result.code, 0) << info.name;
    EXPECT_NE(result.err.find("usage: kvec "), std::string::npos)
        << info.name;
  }
}

TEST(CliDispatch, BadFlagsFailWithUsageText) {
  // Unknown flag.
  CliResult result = RunCli({"train", "--frobnicate", "1"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown flag"), std::string::npos);
  EXPECT_NE(result.err.find("usage: kvec train"), std::string::npos);

  // Unparsable value.
  result = RunCli({"generate", "--seed", "banana", "--out", "ignored"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("integer"), std::string::npos);

  // Missing required flag.
  result = RunCli({"train", "--preset", "ustc"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--model"), std::string::npos);

  result = RunCli({"eval"});
  EXPECT_EQ(result.code, 2);

  // Bad enum-ish values.
  result = RunCli({"generate", "--preset", "nope", "--out", "cli_test_nope"});
  EXPECT_EQ(result.code, 1);  // runtime: dataset resolution fails cleanly
  EXPECT_NE(result.err.find("unknown preset"), std::string::npos);

  result = RunCli({"sweep", "--preset", "smoke", "--methods", "nope"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown method"), std::string::npos);
}

TEST(CliDispatch, GenerateListSucceeds) {
  CliResult result = RunCli({"generate", "--list"});
  EXPECT_EQ(result.code, 0);
  for (const PresetInfo& info : AllPresets()) {
    EXPECT_NE(result.out.find(info.canonical), std::string::npos)
        << info.canonical;
  }
}

// ---- End-to-end golden ---------------------------------------------------

// The fixed recipe behind the golden JSON. Relative paths keep the JSON
// (which embeds the --model argument) independent of the working
// directory's location.
constexpr char kGoldenDataDir[] = "cli_test_golden_data";
constexpr char kGoldenModel[] = "cli_test_golden.kvm";

std::string RunGoldenPipeline() {
  CliResult generate =
      RunCli({"generate", "--preset", "ustc", "--scale", "tiny", "--episodes",
           "30", "--seed", "7", "--out", kGoldenDataDir});
  EXPECT_EQ(generate.code, 0) << generate.err;
  CliResult train =
      RunCli({"train", "--data", kGoldenDataDir, "--model", kGoldenModel,
           "--epochs", "2", "--embed-dim", "12", "--state-dim", "16",
           "--blocks", "1", "--ffn-dim", "24", "--train-seed", "42"});
  EXPECT_EQ(train.code, 0) << train.err;
  CliResult eval =
      RunCli({"eval", "--model", kGoldenModel, "--data", kGoldenDataDir,
           "--json"});
  EXPECT_EQ(eval.code, 0) << eval.err;
  EXPECT_TRUE(eval.err.empty()) << eval.err;
  return eval.out;
}

TEST(CliGolden, EvalJsonGolden) {
  const std::string json = RunGoldenPipeline();

  // Structural sanity regardless of the golden bytes.
  for (const char* key :
       {"\"dataset\"", "\"split\"", "\"summary\"", "\"earliness\"",
        "\"accuracy\"", "\"harmonic_mean\"", "\"num_sequences\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }

  if (std::getenv("KVEC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenFile, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << kGoldenFile;
    out << json;
    GTEST_SKIP() << "regenerated " << kGoldenFile;
  }

  std::ifstream in(kGoldenFile, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << kGoldenFile
                  << " (regenerate with KVEC_REGEN_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(json, golden.str())
      << "kvec eval --json drifted from the committed golden; if the "
         "change is deliberate, regenerate with KVEC_REGEN_GOLDEN=1";
}

TEST(CliGolden, EvalJsonIsDeterministic) {
  EXPECT_EQ(RunGoldenPipeline(), RunGoldenPipeline());
}

TEST(CliDispatch, HandAuthoredDatasetFailsClosed) {
  // The bring-your-own-data path must reject, with a clean exit 1, a
  // directory whose spec or items would otherwise abort inside the
  // embedding lookups: a spec missing max_keys_per_episode (defaults to
  // 0 → negative clamp index) and an item token outside the vocabulary.
  namespace fs = std::filesystem;
  const std::string dir = "cli_test_bad_data";
  fs::create_directories(dir);
  auto write = [&](const std::string& name, const std::string& content) {
    std::ofstream out(dir + "/" + name, std::ios::trunc);
    ASSERT_TRUE(out) << name;
    out << content;
  };
  const std::string items =
      "episode,key,time,label,v0\n0,0,0.5,1,3\n0,0,1.5,1,3\n";
  write("train.csv", items);
  write("validation.csv", items);
  write("test.csv", items);

  // Spec without the max_* rows: structurally incomplete.
  write("spec.csv",
        "key,value,aux\nname,bad,\nsession_field,0,\nnum_classes,2,\n"
        "value_field,f0,8\n");
  CliResult result =
      RunCli({"train", "--data", dir, "--model", "cli_test_bad.kvm"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("spec.csv"), std::string::npos) << result.err;

  // Complete spec, but the items' token 3 exceeds vocab_size 2.
  write("spec.csv",
        "key,value,aux\nname,bad,\nsession_field,0,\nnum_classes,2,\n"
        "max_keys_per_episode,4,\nmax_sequence_length,8,\n"
        "max_episode_length,8,\ntarget_avg_length,2,\n"
        "target_avg_session_length,1,\nvalue_field,f0,2\n");
  result = RunCli({"train", "--data", dir, "--model", "cli_test_bad.kvm"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("vocabulary"), std::string::npos) << result.err;
}

TEST(CliGolden, BundleRoundTripsAndInspects) {
  RunGoldenPipeline();  // ensures the bundle exists
  std::string error;
  auto model = LoadModelBundle(kGoldenModel, &error);
  ASSERT_NE(model, nullptr) << error;
  EXPECT_EQ(model->config().embed_dim, 12);
  EXPECT_EQ(model->config().spec.name, "USTC-TFC2016");

  CliResult inspect = RunCli({"checkpoint", "--inspect", kGoldenModel});
  EXPECT_EQ(inspect.code, 0) << inspect.err;
  EXPECT_NE(inspect.out.find("model_config"), std::string::npos);
  EXPECT_NE(inspect.out.find("model_params"), std::string::npos);

  CliResult corrupt = RunCli({"checkpoint", "--inspect", "cli_test_nonexistent"});
  EXPECT_EQ(corrupt.code, 1);
}

// ---- kvec serve: shard workers, overload flags, graceful interrupt -------

TEST(CliServe, WorkersModeReportsOverloadCounters) {
  CliResult result =
      RunCli({"serve", "--workers", "2", "--queue-depth", "8",
              "--overload-policy", "shed-newest", "--json"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("\"workers\": 2"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("\"overload\""), std::string::npos);
  EXPECT_NE(result.out.find("\"items_submitted\""), std::string::npos);
  EXPECT_NE(result.out.find("\"overload_policy\": \"shed-newest\""),
            std::string::npos);
  EXPECT_NE(result.out.find("\"queue_depth\": 8"), std::string::npos);
}

TEST(CliServe, WorkersShardsConflictAndBadPolicyAreUsageErrors) {
  CliResult mismatch = RunCli({"serve", "--workers", "2", "--shards", "4"});
  EXPECT_EQ(mismatch.code, 2);
  EXPECT_NE(mismatch.err.find("--workers must equal --shards"),
            std::string::npos)
      << mismatch.err;

  CliResult policy = RunCli({"serve", "--overload-policy", "drop"});
  EXPECT_EQ(policy.code, 2);
  EXPECT_NE(policy.err.find("block|shed-newest|shed-oldest"),
            std::string::npos)
      << policy.err;

  CliResult depth = RunCli({"serve", "--workers", "1", "--queue-depth", "0"});
  EXPECT_EQ(depth.code, 2);
}

TEST(CliServe, InterruptDrainsReportsAndStillSavesTheCheckpoint) {
  // Simulates Ctrl-C mid-replay: the "serve.batch" point fires at every
  // batch boundary, and after two batches the hook requests an interrupt
  // exactly as the SIGINT handler would. Serve must stop at the next
  // boundary, drain the shard queues, print the per-shard report, honor
  // --save-checkpoint, and exit 130.
  const std::string checkpoint = "cli_test_interrupt.ckpt";
  std::filesystem::remove(checkpoint);
  std::atomic<int> batches{0};
  FaultInjection::Arm("serve.batch", [&batches](const char*) {
    if (batches.fetch_add(1) + 1 == 2) RequestServeInterrupt();
    return false;
  });
  CliResult result = RunCli({"serve", "--workers", "2", "--batch", "16",
                             "--save-checkpoint", checkpoint});
  FaultInjection::DisarmAll();
  EXPECT_EQ(result.code, 130) << result.err;
  EXPECT_NE(result.out.find("interrupted: drained shard queues"),
            std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("shed batches"), std::string::npos) << result.out;
  ASSERT_TRUE(std::filesystem::exists(checkpoint));

  // The interrupted process's state restores into a fresh serve run.
  CliResult resumed = RunCli({"serve", "--workers", "2", "--batch", "16",
                              "--load-checkpoint", checkpoint});
  EXPECT_EQ(resumed.code, 0) << resumed.err;
  std::filesystem::remove(checkpoint);
}

TEST(CliServe, FailedRestoreSaysWhy) {
  const std::string checkpoint = "cli_test_four_shards.ckpt";
  const std::string garbage = "cli_test_garbage.ckpt";
  CliResult saved =
      RunCli({"serve", "--shards", "4", "--save-checkpoint", checkpoint});
  ASSERT_EQ(saved.code, 0) << saved.err;

  // The key hash routes by shard count, so the restore must refuse and
  // name both counts.
  CliResult mismatch =
      RunCli({"serve", "--shards", "2", "--load-checkpoint", checkpoint});
  EXPECT_EQ(mismatch.code, 1);
  EXPECT_NE(mismatch.err.find("checkpoint has 4 shards, server has 2"),
            std::string::npos)
      << mismatch.err;

  {
    std::ofstream out(garbage, std::ios::binary);
    for (int i = 0; i < 100; ++i) out.put(static_cast<char>(i * 37 + 11));
  }
  CliResult corrupt =
      RunCli({"serve", "--shards", "2", "--load-checkpoint", garbage});
  EXPECT_EQ(corrupt.code, 1);
  EXPECT_NE(corrupt.err.find("not a kvec checkpoint"), std::string::npos)
      << corrupt.err;
  std::filesystem::remove(checkpoint);
  std::filesystem::remove(garbage);
}

}  // namespace
}  // namespace cli
}  // namespace kvec
