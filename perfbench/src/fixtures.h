// Benchmark set-up: options, the seeded image pool, the resident model and
// corpus snapshot, and the reference reports every output is checked
// against.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dl/similarity_model.h"
#include "engine/corpus_store.h"
#include "engine/engine.h"
#include "firmware/firmware.h"

namespace perfbench {

enum class Workload { oneshot_exact, oneshot_prefilter, daemon_warm };

struct Options {
  Workload workload = Workload::oneshot_exact;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Library-size scale of the generated corpus; 1.0 = the paper's sizes.
  double scale = 1.0;
  std::string model_path;  ///< trained once per build (see run.py)
  std::string work_dir;    ///< private scratch, removed at exit
  std::string span_dump;   ///< traced run: where the span JSONL goes
  /// Self-check hook: corrupt one reference byte, so the run must fail.
  bool tamper_reference = false;
  unsigned jobs = 1;  ///< engine jobs and replay workers: the core count
};

/// Pool images 0 and 1 are the paper's two devices, whose ground truth
/// (Table VIII) is fixed; verdicts_correct is scored on them alone, since
/// the seeded variant's count moves with the seed.
constexpr std::size_t kPaperDevices = 2;

/// One generated firmware image of the pool, with its reference outputs.
struct PoolImage {
  patchecko::DeviceSpec device;
  std::string path;
  std::string reference;  ///< canonical_text() of the full 25-CVE scan
  /// canonical_text() of each single-CVE scan (daemon workload only).
  std::map<std::string, std::string> cve_reference;
};

struct SetupTimes {
  double model_s = 0.0;
  double database_s = 0.0;
  double images_s = 0.0;
  double warmup_s = 0.0;
  double total() const { return model_s + database_s + images_s + warmup_s; }
};

struct Fixture {
  Options options;
  patchecko::SimilarityModel model;
  std::shared_ptr<const patchecko::CorpusSnapshot> snapshot;
  std::vector<PoolImage> pool;
  /// Engine settings every scan of the workload uses (cache dir aside).
  patchecko::EngineConfig engine;
  /// The separate in-process engine that computed the references; its
  /// memory cache stays warm and backs the daemon workload's replay.
  std::unique_ptr<patchecko::ScanEngine> reference_engine;
  SetupTimes setup;
};

/// The seeded patch-level variant: a third device whose patched CVE set is
/// drawn from the seed.
patchecko::DeviceSpec variant_device(std::uint64_t seed);

/// Loads the model, builds the corpus snapshot for the seed, generates and
/// saves the image pool, and computes the references. Throws on failure.
std::unique_ptr<Fixture> make_fixture(const Options& options);

/// CVE verdicts in a canonical report that match the device's ground
/// truth (DeviceSpec::is_patched); a CVE without a verdict counts as wrong.
int correct_verdicts(const std::string& canonical, const patchecko::DeviceSpec& device);

}  // namespace perfbench
