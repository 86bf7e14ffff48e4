// perfbench: the repository benchmark binary (see ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --model FILE --work-dir DIR [--span-dump FILE] [--scale X]
//             [--tamper-reference]
//   perfbench --train-model FILE
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end when untraced, per-layer when traced).
// Diagnostics go to standard error. Exit status 0 only when every output
// matched its reference.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "dl/trainer.h"
#include "obs/json.h"
#include "util/parallel.h"
#include "workloads.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  std::exit(2);
}

/// The model fixture: the trainer's fixed default configuration (12
/// epochs), trained once per build and loaded by every run.
int train_model(const std::string& path) {
  patchecko::TrainerConfig config;
  const patchecko::TrainingRun run = patchecko::train_similarity_model(config);
  if (!run.model.save(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "perfbench: trained model (test accuracy %.4f) -> %s\n",
               run.test_accuracy, path.c_str());
  return 0;
}

void print_result(const RunOutcome& outcome, bool traced) {
  std::string out = "{\"correct\":";
  out += outcome.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(outcome.attempted);
  out += ",\"failed\":" + std::to_string(outcome.failed);
  out += ",\"metrics\":{";
  const auto& metrics = traced ? outcome.per_layer : outcome.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ',';
    patchecko::obs::json::append_string(out, metrics[i].name);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += ":{\"value\":";
    out += value;
    out += ",\"unit\":";
    patchecko::obs::json::append_string(out, metrics[i].unit);
    out += '}';
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.jobs = patchecko::default_worker_threads();
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tamper-reference") {
      options.tamper_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--train-model") return train_model(value);
    if (flag == "--workload") {
      have_workload = true;
      if (value == "oneshot_exact")
        options.workload = Workload::oneshot_exact;
      else if (value == "oneshot_prefilter")
        options.workload = Workload::oneshot_prefilter;
      else if (value == "daemon_warm")
        options.workload = Workload::daemon_warm;
      else
        usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--scale") {
      options.scale = std::stod(value);
    } else if (flag == "--model") {
      options.model_path = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--span-dump") {
      options.span_dump = value;
    } else {
      usage("unknown option " + flag);
    }
  }
  if (!have_workload || options.model_path.empty() || options.work_dir.empty())
    usage("--workload, --model and --work-dir are required");
  if (options.seconds <= 0.0 || options.scale <= 0.0)
    usage("--seconds and --scale must be positive");

  std::filesystem::create_directories(options.work_dir);
  int status = 1;
  try {
    const RunOutcome outcome = run_workload(options);
    print_result(outcome, options.trace);
    status = outcome.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
  }
  std::error_code ignored;
  std::filesystem::remove_all(options.work_dir, ignored);
  return status;
}
