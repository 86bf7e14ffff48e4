#include "fixtures.h"

#include <sstream>
#include <stdexcept>

#include "util/parallel.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {

using namespace patchecko;

DeviceSpec variant_device(std::uint64_t seed) {
  Rng rng = Rng(seed).fork(0x7a71);
  DeviceSpec device;
  device.name = "Seeded variant";
  device.arch = Arch::arm64;
  device.opt = OptLevel::O2;
  device.patch_level = "2018-0" + std::to_string(1 + rng.uniform(0, 8));
  for (const CveSpec& cve : standard_cves())
    if (rng.chance(0.5)) device.patched_cves.push_back(cve.cve_id);
  return device;
}

int correct_verdicts(const std::string& canonical, const DeviceSpec& device) {
  // Blocks start with "== <cve> library <lib> ==" and carry at most one
  // "match: function=<n> verdict=<patched|vulnerable> ..." line.
  int correct = 0;
  std::string cve;
  std::istringstream lines(canonical);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("== ", 0) == 0) {
      cve = line.substr(3, line.find(' ', 3) - 3);
      continue;
    }
    if (line.rfind("match: function=", 0) != 0) continue;
    const std::size_t at = line.find(" verdict=");
    if (at == std::string::npos) continue;
    const bool patched = line.compare(at + 9, 7, "patched") == 0;
    if (patched == device.is_patched(cve)) ++correct;
  }
  return correct;
}

std::unique_ptr<Fixture> make_fixture(const Options& options) {
  auto fixture = std::make_unique<Fixture>();
  fixture->options = options;

  Stopwatch watch;
  auto model = SimilarityModel::load(options.model_path);
  if (!model) throw std::runtime_error("cannot load model " + options.model_path);
  fixture->model = std::move(*model);
  fixture->setup.model_s = watch.elapsed_seconds();

  // The corpus keeps EvalConfig's default seed: across corpus seeds the
  // cost of a scan moves by more than a run's noise, which would swamp any
  // bound. The workload seed drives the variant device, scan order, and
  // request mix instead.
  watch.restart();
  EvalConfig eval;
  eval.scale = options.scale;
  fixture->snapshot =
      std::make_shared<const CorpusSnapshot>(1, eval, DatabaseConfig{});
  fixture->setup.database_s = watch.elapsed_seconds();

  // The pool: both paper devices plus the seeded variant, compiled from the
  // seed's corpus and written out as PKFW files — the only form in which
  // the system under test sees them.
  watch.restart();
  const EvalCorpus& corpus = fixture->snapshot->corpus;
  const std::vector<DeviceSpec> devices = {
      android_things_device(), pixel2xl_device(), variant_device(options.seed)};
  const std::size_t libraries = corpus.library_specs().size();
  std::vector<FirmwareImage> images(devices.size());
  for (std::size_t d = 0; d < devices.size(); ++d) {
    images[d].device = devices[d].name;
    images[d].libraries.resize(libraries);
  }
  parallel_for(devices.size() * libraries, options.jobs, [&](std::size_t t) {
    const std::size_t d = t / libraries, lib = t % libraries;
    images[d].libraries[lib] = corpus.compile_for_device(lib, devices[d]);
  });
  for (std::size_t d = 0; d < devices.size(); ++d) {
    PoolImage image;
    image.device = devices[d];
    image.path = options.work_dir + "/image" + std::to_string(d) + ".pkfw";
    if (!save_firmware(images[d], image.path))
      throw std::runtime_error("cannot write " + image.path);
    fixture->pool.push_back(std::move(image));
  }
  images.clear();
  fixture->setup.images_s = watch.elapsed_seconds();

  // References: a separate engine with the workload's settings scans every
  // pool image once; the daemon workload also needs each single-CVE report.
  watch.restart();
  fixture->engine.jobs = options.jobs;
  if (options.workload == Workload::oneshot_prefilter)
    fixture->engine.pipeline.prefilter_mode = retrieval::PrefilterMode::on;
  fixture->reference_engine = std::make_unique<ScanEngine>(fixture->engine);
  for (PoolImage& image : fixture->pool) {
    const auto firmware = load_firmware(image.path);
    if (!firmware) throw std::runtime_error("cannot reload " + image.path);
    ScanRequest request;
    request.model = &fixture->model;
    request.firmware = &*firmware;
    request.database = &fixture->snapshot->database;
    image.reference = fixture->reference_engine->run(request).canonical_text();
    if (options.workload != Workload::daemon_warm) continue;
    for (const CveEntry& entry : fixture->snapshot->database.entries()) {
      request.cve_ids = {entry.spec.cve_id};
      image.cve_reference[entry.spec.cve_id] =
          fixture->reference_engine->run(request).canonical_text();
    }
  }
  if (options.tamper_reference) {
    std::string& victim = fixture->pool.front().reference;
    victim[victim.size() / 2] ^= 0x01;
  }
  fixture->setup.warmup_s = watch.elapsed_seconds();
  return fixture;
}

}  // namespace perfbench
