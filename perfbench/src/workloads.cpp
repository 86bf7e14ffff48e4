#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "replay.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "spans.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {

using namespace patchecko;
namespace fs = std::filesystem;
namespace svc = patchecko::service;
namespace json = patchecko::obs::json;

namespace {

constexpr std::size_t kClients = 3;      ///< daemon client connections
constexpr unsigned kDispatchers = 2;     ///< daemon dispatcher threads
constexpr std::size_t kReplayRequests = 24;  ///< daemon requests replayed
constexpr std::uint64_t kFirstMeasuredId = 1000;  ///< daemon request ids

// --- small statistics helpers ---------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::uint64_t directory_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code error;
  for (const auto& item : fs::recursive_directory_iterator(dir, error))
    if (item.is_regular_file(error)) total += item.file_size(error);
  return total;
}

/// Longest analyze -> detect -> patch chain of one scan's job wall times.
double critical_path_seconds(const ScanReport& report) {
  std::map<std::string, double> analyze, detect, patch;
  for (const JobTiming& timing : report.timings) {
    auto& by_label = timing.kind == JobKind::analyze  ? analyze
                     : timing.kind == JobKind::detect ? detect
                                                      : patch;
    by_label[timing.label] = timing.seconds;
  }
  double longest = 0.0;
  for (const CveScanResult& result : report.results)
    if (!result.library_missing)
      longest = std::max(longest, analyze[result.library] +
                                      detect[result.cve_id] +
                                      patch[result.cve_id]);
  return longest;
}

// --- the correctness gate --------------------------------------------------

/// Counts checked operations; every output is compared byte for byte with
/// its reference.
struct Gate {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  bool quiet = false;

  bool check(const std::string& output, const std::string& reference,
             const std::string& what) {
    ++attempted;
    if (output == reference) return true;
    ++failed;
    if (!quiet) std::fprintf(stderr, "perfbench: MISMATCH in %s\n", what.c_str());
    return false;
  }
  void fail(const std::string& what) {
    ++attempted;
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
};

/// Negative self-check of the gate: a reference with one byte flipped must
/// be caught. Runs on a scratch gate so it never counts as real work.
bool gate_catches_tampering(const std::string& output) {
  if (output.empty()) return false;
  std::string tampered = output;
  tampered[tampered.size() / 2] ^= 0x01;
  Gate scratch;
  scratch.quiet = true;
  return !scratch.check(output, tampered, "tampered-reference self-check") &&
         scratch.failed == 1;
}

/// Peak resident set over an interval, sampled from /proc every 10 ms on a
/// thread of its own (joined by stop()).
class RssSampler {
 public:
  RssSampler() : thread_([this] {
    while (!stop_.load()) {
      peak_kb_ = std::max(peak_kb_.load(), obs::process_rss_kb());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }) {}
  ~RssSampler() { stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  double stop_mb() {
    stop();
    peak_kb_ = std::max(peak_kb_.load(), obs::process_rss_kb());
    return static_cast<double>(peak_kb_.load()) / 1024.0;
  }

 private:
  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> peak_kb_{0};
  std::thread thread_;
};

// --- oneshot workloads -----------------------------------------------------

struct OneshotStats {
  std::vector<double> scan_s, busy_share, critical_path_s;
  std::uint64_t bytes_written = 0;
  int verdicts_correct = 0;
};

void measure_oneshot(const Fixture& fx, Gate& gate, OneshotStats& stats) {
  const Options& options = fx.options;
  // Seeded cycle through the pool; every image is scanned at least once.
  std::vector<std::size_t> order(fx.pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng = Rng(options.seed).fork(2);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[static_cast<std::size_t>(
                                rng.uniform(0, static_cast<std::int64_t>(i) - 1))]);
  std::vector<bool> seen(fx.pool.size(), false);
  const Stopwatch total;
  for (std::size_t n = 0;
       n < fx.pool.size() || total.elapsed_seconds() < options.seconds; ++n) {
    const std::size_t which = order[n % order.size()];
    const PoolImage& image = fx.pool[which];
    EngineConfig config = fx.engine;
    config.cache_dir = options.work_dir + "/cache" + std::to_string(n);
    std::string text;
    {
      // Image file in, canonical report out: a cold one-shot scan with a
      // fresh on-disk result cache.
      const double cpu_before = process_cpu_seconds();
      const Stopwatch watch;
      const auto firmware = load_firmware(image.path);
      if (!firmware) throw std::runtime_error("cannot load " + image.path);
      ScanEngine engine(config);
      ScanRequest request;
      request.model = &fx.model;
      request.firmware = &*firmware;
      request.database = &fx.snapshot->database;
      const ScanReport report = engine.run(request);
      text = report.canonical_text();
      const double wall = watch.elapsed_seconds();
      const double cpu = process_cpu_seconds() - cpu_before;
      stats.scan_s.push_back(wall);
      stats.busy_share.push_back(ratio(cpu, wall * options.jobs));
      stats.critical_path_s.push_back(critical_path_seconds(report));
    }
    if (n == 0 && !gate_catches_tampering(text))
      gate.fail("gate self-check: a tampered reference went unnoticed");
    gate.check(text, image.reference, "oneshot scan of image " + std::to_string(which));
    if (!seen[which] && which < kPaperDevices)
      stats.verdicts_correct += correct_verdicts(text, image.device);
    seen[which] = true;
    stats.bytes_written += directory_bytes(config.cache_dir);
    fs::remove_all(config.cache_dir);
  }
}

// --- daemon workload -------------------------------------------------------

struct DaemonRequest {
  std::size_t image = 0;
  std::string cve;  ///< empty = full 25-CVE scan
};

/// The seeded request mix: the first request of each client is a full scan
/// of a distinct pool image, then half full scans and half single-CVE
/// queries over random images.
std::vector<DaemonRequest> request_mix(const Fixture& fx, std::size_t count) {
  Rng rng = Rng(fx.options.seed).fork(3);
  const auto& entries = fx.snapshot->database.entries();
  std::vector<DaemonRequest> mix(count);
  for (std::size_t k = 0; k < count; ++k) {
    if (k < fx.pool.size()) {
      mix[k].image = k;
      continue;
    }
    mix[k].image = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(fx.pool.size()) - 1));
    if (rng.chance(0.5))
      mix[k].cve = entries[static_cast<std::size_t>(rng.uniform(
                               0, static_cast<std::int64_t>(entries.size()) - 1))]
                       .spec.cve_id;
  }
  return mix;
}

const std::string& expected_for(const Fixture& fx, const DaemonRequest& request) {
  const PoolImage& image = fx.pool[request.image];
  return request.cve.empty() ? image.reference : image.cve_reference.at(request.cve);
}

struct DaemonStats {
  std::vector<double> latency_s, full_latency_s, admit_s;
  double wall_s = 0.0;
  std::uint64_t refused = 0;
  int verdicts_correct = 0;
  std::vector<double> queue_wait_ms;
  double bytes_out = 0.0;
};

/// One request over `client`: send, wait for "accepted", then "result".
/// Returns the report text, or nullopt after recording the failure.
std::optional<std::string> submit(svc::ServiceClient& client, const Fixture& fx,
                                  const DaemonRequest& request,
                                  std::uint64_t id, Gate& gate,
                                  std::uint64_t& refused, double& admit_s,
                                  double& latency_s) {
  std::vector<std::string> cves;
  if (!request.cve.empty()) cves.push_back(request.cve);
  const Stopwatch watch;
  std::optional<std::string> frame;
  if (client.send(svc::scan_request_json(fx.pool[request.image].path, cves,
                                         false, id)))
    frame = client.receive();
  admit_s = watch.elapsed_seconds();
  const auto type_of = [](const std::optional<json::Value>& doc) {
    return doc ? doc->get("type").as_string() : std::string();
  };
  auto doc = frame ? json::parse(*frame) : std::nullopt;
  if (type_of(doc) != "accepted") {
    if (doc && doc->get("code").as_number() == 429) ++refused;
    gate.fail("daemon request " + std::to_string(id) + " not accepted");
    return std::nullopt;
  }
  frame = client.receive();
  latency_s = watch.elapsed_seconds();
  doc = frame ? json::parse(*frame) : std::nullopt;
  if (type_of(doc) != "result") {
    gate.fail("daemon request " + std::to_string(id) + " got no result");
    return std::nullopt;
  }
  return doc->get("report").as_string();
}

void measure_daemon(const Fixture& fx, const std::string& socket,
                    const std::vector<DaemonRequest>& mix, Gate& gate,
                    DaemonStats& stats) {
  std::vector<svc::ServiceClient> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(svc::ServiceClient::connect_unix(socket));
    if (!clients.back().connected())
      throw std::runtime_error("cannot connect to " + socket);
  }
  std::mutex mutex;
  std::vector<bool> seen(fx.pool.size(), false);
  const Stopwatch wall;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      // Closed loop: the next request leaves once the previous answered.
      for (std::size_t k = c; k < mix.size(); k += kClients) {
        if (wall.elapsed_seconds() >= fx.options.seconds) break;
        const DaemonRequest& request = mix[k];
        std::uint64_t refused = 0;
        double admit_s = 0.0, latency_s = 0.0;
        const auto report = submit(clients[c], fx, request, kFirstMeasuredId + k,
                                   gate, refused, admit_s, latency_s);
        const std::lock_guard<std::mutex> lock(mutex);
        stats.refused += refused;
        if (!report) continue;
        const bool ok = gate.check(*report, expected_for(fx, request),
                                   "daemon request " + std::to_string(k));
        if (!ok) continue;
        stats.latency_s.push_back(latency_s);
        stats.admit_s.push_back(admit_s);
        if (!request.cve.empty()) continue;
        stats.full_latency_s.push_back(latency_s);
        if (!seen[request.image] && request.image < kPaperDevices)
          stats.verdicts_correct +=
              correct_verdicts(*report, fx.pool[request.image].device);
        seen[request.image] = true;
      }
    });
  for (std::thread& thread : threads) thread.join();
  stats.wall_s = wall.elapsed_seconds();
  if (std::count(seen.begin(), seen.end(), true) !=
      static_cast<std::ptrdiff_t>(fx.pool.size()))
    gate.fail("daemon run did not fully scan every pool image");
}

/// Queue wait and bytes out of the measured requests, from the daemon's
/// access log.
void read_access_log(const std::string& path, DaemonStats& stats) {
  std::ifstream in(path);
  std::string line;
  std::uint64_t requests = 0, bytes = 0;
  while (std::getline(in, line)) {
    const auto doc = json::parse(line);
    if (!doc || doc->get("op").as_string() != "scan" ||
        doc->get("id").as_number() < static_cast<double>(kFirstMeasuredId))
      continue;
    stats.queue_wait_ms.push_back(1e3 * doc->get("queue_wait_s").as_number());
    bytes += static_cast<std::uint64_t>(doc->get("bytes_out").as_number());
    ++requests;
  }
  stats.bytes_out = ratio(static_cast<double>(bytes), static_cast<double>(requests));
}

// --- traced run ------------------------------------------------------------

struct TraceResult {
  ReplayCounters counters;
  double traced_s = 0.0, untraced_s = 0.0;
  std::vector<double> critical_path_s, busy_share;  ///< daemon: in-process
};

/// Replays one scan untraced and traced (which goes first alternates with
/// the id, so warm-up favours neither), checking both reports against the
/// reference. With a `cache_dir`, each replay gets a fresh disk cache there
/// (cold); otherwise it uses `target.cache` as given (warm).
void replay_pair(ReplayTarget target, const std::string& path,
                 const std::vector<std::string>& cves, std::uint64_t id,
                 const std::string& expected, const std::string& cache_dir,
                 Gate& gate, TraceResult& trace) {
  for (const bool traced : {id % 2 == 0, id % 2 != 0}) {
    std::optional<ResultCache> fresh;
    if (!cache_dir.empty()) {
      fs::remove_all(cache_dir);
      fresh.emplace(cache_dir);
      target.cache = &*fresh;
    }
    ReplayCounters counters;
    SpanLog::global().set_enabled(traced);
    obs::set_enabled(traced);
    const Stopwatch watch;
    const ScanReport report = replay_scan(target, path, cves, id, counters);
    const double seconds = watch.elapsed_seconds();
    obs::set_enabled(false);
    SpanLog::global().set_enabled(false);
    gate.check(report.canonical_text(), expected,
               std::string(traced ? "traced" : "untraced") + " replay " +
                   std::to_string(id));
    (traced ? trace.traced_s : trace.untraced_s) += seconds;
    if (traced) trace.counters.add(counters);
  }
  if (!cache_dir.empty()) fs::remove_all(cache_dir);
}

ReplayTarget replay_target(const Fixture& fx) {
  ReplayTarget target;
  target.model = &fx.model;
  target.database = &fx.snapshot->database;
  target.pipeline = fx.engine.pipeline;
  target.jobs = fx.options.jobs;
  return target;
}

TraceResult trace_oneshot(const Fixture& fx, Gate& gate) {
  TraceResult trace;
  ReplayTarget target = replay_target(fx);
  target.reference = &fx.reference_engine->cache();
  for (std::size_t i = 0; i < fx.pool.size(); ++i)
    replay_pair(target, fx.pool[i].path, {}, i + 1, fx.pool[i].reference,
                fx.options.work_dir + "/replay-cache", gate, trace);
  return trace;
}

TraceResult trace_daemon(const Fixture& fx, const std::vector<DaemonRequest>& mix,
                         Gate& gate) {
  TraceResult trace;
  const std::size_t count = std::min(kReplayRequests, mix.size());
  // The engine's own job timings for the same warm requests, in process.
  std::vector<FirmwareImage> images;
  for (const PoolImage& image : fx.pool) {
    auto firmware = load_firmware(image.path);
    if (!firmware) throw std::runtime_error("cannot load " + image.path);
    images.push_back(std::move(*firmware));
  }
  for (std::size_t k = 0; k < count; ++k) {
    ScanRequest request;
    request.model = &fx.model;
    request.firmware = &images[mix[k].image];
    request.database = &fx.snapshot->database;
    if (!mix[k].cve.empty()) request.cve_ids = {mix[k].cve};
    const double cpu_before = process_cpu_seconds();
    const Stopwatch watch;
    const ScanReport report = fx.reference_engine->run(request);
    const double wall = watch.elapsed_seconds();
    trace.busy_share.push_back(
        ratio(process_cpu_seconds() - cpu_before, wall * fx.options.jobs));
    trace.critical_path_s.push_back(critical_path_seconds(report));
  }
  // Warm replays against the reference engine's (fully populated) cache.
  ReplayTarget target = replay_target(fx);
  target.cache = &fx.reference_engine->cache();
  for (std::size_t k = 0; k < count; ++k) {
    std::vector<std::string> cves;
    if (!mix[k].cve.empty()) cves.push_back(mix[k].cve);
    replay_pair(target, fx.pool[mix[k].image].path, cves, kFirstMeasuredId + k,
                expected_for(fx, mix[k]), "", gate, trace);
  }
  return trace;
}

/// Multiply-accumulates of one SimilarityModel::score call, from the
/// network's layer shapes (96-96-64-48-32-16-1 in the paper's model).
double macs_per_pair(const SimilarityModel& model) {
  double macs = 0.0;
  for (const DenseLayer& layer : model.network().layers())
    macs += static_cast<double>(layer.in_dim() * layer.out_dim());
  return macs;
}

}  // namespace

RunOutcome run_workload(const Options& options) {
  RunOutcome outcome;
  Gate gate;
  std::unique_ptr<Fixture> fx = make_fixture(options);
  const bool daemon = options.workload == Workload::daemon_warm;

  // --- daemon start-up and warm-up (part of set-up) -------------------------
  std::unique_ptr<svc::ScanService> service;
  std::vector<DaemonRequest> mix;
  const std::string socket = options.work_dir + "/daemon.sock";
  const std::string access_log = options.work_dir + "/access.jsonl";
  if (daemon) {
    const Stopwatch warmup;
    svc::ServiceConfig config;
    config.socket_path = socket;
    config.model = &fx->model;
    config.eval = fx->snapshot->eval;
    config.engine = fx->engine;
    config.dispatchers = kDispatchers;
    config.access_log.enabled = true;
    config.access_log.file = access_log;
    // The daemon adopts the snapshot set-up already built (same seed, same
    // corpus) instead of compiling a second copy.
    config.snapshot_builder = [snapshot = fx->snapshot](
                                  std::uint64_t, const EvalConfig&,
                                  const DatabaseConfig&) { return snapshot; };
    service = std::make_unique<svc::ScanService>(config);
    service->start();
    // Pre-scan the pool so every analyze/detect result is a memory hit.
    auto client = svc::ServiceClient::connect_unix(socket);
    for (std::size_t i = 0; i < fx->pool.size(); ++i) {
      std::uint64_t refused = 0;
      double admit_s = 0.0, latency_s = 0.0;
      const auto report = submit(client, *fx, DaemonRequest{i, {}}, i + 1, gate,
                                 refused, admit_s, latency_s);
      if (!report) throw std::runtime_error("daemon pre-scan failed");
      if (i == 0 && !gate_catches_tampering(*report))
        gate.fail("gate self-check: a tampered reference went unnoticed");
      gate.check(*report, fx->pool[i].reference, "daemon pre-scan");
    }
    mix = request_mix(*fx, 1u << 14);
    fx->setup.warmup_s += warmup.elapsed_seconds();
  }
  const double setup_s = fx->setup.total();
  std::fprintf(stderr,
               "perfbench: set-up %.3fs (model %.3f, database %.3f, images "
               "%.3f, warm-up %.3f)\n",
               setup_s, fx->setup.model_s, fx->setup.database_s,
               fx->setup.images_s, fx->setup.warmup_s);

  // --- measurement (untraced) -----------------------------------------------
  std::vector<double> latency_s, scan_s;
  double wall_s = 0.0;
  int verdicts_correct = 0;
  OneshotStats oneshot;
  DaemonStats served;
  RssSampler rss;
  if (daemon) {
    measure_daemon(*fx, socket, mix, gate, served);
    service->stop();
    service.reset();
    read_access_log(access_log, served);
    latency_s = served.latency_s;
    scan_s = served.full_latency_s;
    wall_s = served.wall_s;
    verdicts_correct = served.verdicts_correct;
  } else {
    const Stopwatch wall;
    measure_oneshot(*fx, gate, oneshot);
    wall_s = wall.elapsed_seconds();
    latency_s = scan_s = oneshot.scan_s;
    verdicts_correct = oneshot.verdicts_correct;
  }
  const double peak_rss_mb = rss.stop_mb();
  std::fprintf(stderr,
               "perfbench: %zu requests (%zu full scans) in %.3fs; median "
               "%.1f ms, p95 %.1f ms; %d verdicts correct\n",
               latency_s.size(), scan_s.size(), wall_s,
               1e3 * median(latency_s), 1e3 * percentile(latency_s, 0.95),
               verdicts_correct);
  outcome.end_to_end = {
      {"scan_s", median(scan_s), "s"},
      {"verdicts_correct", static_cast<double>(verdicts_correct), "count"},
      {"req_p50_ms", 1e3 * median(latency_s), "ms"},
      {"req_p95_ms", 1e3 * percentile(latency_s, 0.95), "ms"},
      {"req_per_s", ratio(static_cast<double>(latency_s.size()), wall_s), "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", setup_s, "s"},
  };

  // --- traced run: replay through the layers --------------------------------
  if (options.trace) {
    SpanLog::global().clear();
    const TraceResult trace =
        daemon ? trace_daemon(*fx, mix, gate) : trace_oneshot(*fx, gate);
    obs::Tracer::global().clear();
    const std::vector<SpanRecord> records = SpanLog::global().records();
    const SpanSummary summary = summarize(records);
    if (summary.bad_parents != 0 || summary.escaping_children != 0)
      gate.fail("span nesting check");
    if (!options.span_dump.empty() &&
        !write_jsonl(options.span_dump, records, summary))
      gate.fail("cannot write span dump " + options.span_dump);

    const ReplayCounters& c = trace.counters;
    const auto self_ns = [&](const char* name) {
      const auto it = summary.by_name.find(name);
      return it == summary.by_name.end() ? 0.0 : it->second.self_ns;
    };
    const auto allocs = [&](const char* name) {
      const auto it = summary.by_name.find(name);
      return it == summary.by_name.end()
                 ? 0.0
                 : static_cast<double>(it->second.self_allocs);
    };
    const auto calls = [&](const char* name) {
      const auto it = summary.by_name.find(name);
      return it == summary.by_name.end() ? 0.0
                                         : static_cast<double>(it->second.count);
    };
    const auto n = [](std::uint64_t value) { return static_cast<double>(value); };
    const double scans = n(c.scans);
    const double ms_per_scan = 1e-6 / std::max(scans, 1.0);
    std::vector<double> critical = trace.critical_path_s, busy = trace.busy_share;
    if (!daemon) {
      critical = oneshot.critical_path_s;
      busy = oneshot.busy_share;
    }
    outcome.per_layer = {
        {"dl.pairs_scored", n(c.pairs_scored), "count"},
        {"dl.ns_per_pair", ratio(self_ns("dl.score"), n(c.pairs_scored)), "ns"},
        {"dl.allocs_per_pair", ratio(allocs("dl.score"), n(c.pairs_scored)), "count"},
        {"dl.macs", n(c.pairs_scored) * macs_per_pair(fx->model), "count"},
        {"vm.runs", n(c.vm_runs), "count"},
        {"vm.steps", n(c.vm_steps), "count"},
        {"vm.ns_per_step", ratio(self_ns("vm.profile"), n(c.vm_steps)), "ns"},
        {"vm.allocs_per_run", ratio(allocs("vm.profile"), n(c.vm_runs)), "count"},
        {"fuzz.validated_share", ratio(n(c.validated), n(c.stage1_candidates)), "ratio"},
        {"binary.cfg_ns_per_fn", ratio(self_ns("binary.cfg"), n(c.functions)), "ns"},
        {"features.extract_ns_per_fn",
         ratio(self_ns("features.extract"), n(c.functions)), "ns"},
        {"features.allocs_per_fn",
         ratio(allocs("features.extract"), n(c.functions)), "count"},
        {"retrieval.index_build_ms", self_ns("retrieval.index_build") * ms_per_scan, "ms"},
        {"retrieval.top_k_us",
         1e-3 * ratio(self_ns("retrieval.top_k"), n(c.top_k_queries)), "us"},
        {"retrieval.shortlist_per_query",
         ratio(n(c.shortlisted), n(c.top_k_queries)), "count"},
        {"core.stage1_candidates", n(c.stage1_candidates), "count"},
        {"core.detect_self_ms", self_ns("core.detect") * ms_per_scan, "ms"},
        {"similarity.rank_us",
         1e-3 * ratio(self_ns("similarity.rank"), calls("similarity.rank")), "us"},
        {"diff.patch_ms", self_ns("diff.patch") * ms_per_scan, "ms"},
        {"firmware.decode_ms", self_ns("firmware.decode") * ms_per_scan, "ms"},
        {"firmware.decode_allocs", ratio(allocs("firmware.decode"), scans), "count"},
        {"engine.digest_ms", self_ns("engine.digest") * ms_per_scan, "ms"},
        {"engine.cache_find_us",
         1e-3 * ratio(self_ns("engine.cache_find"), n(c.cache_finds)), "us"},
        {"engine.cache_store_us",
         1e-3 * ratio(self_ns("engine.cache_store"), n(c.cache_stores)), "us"},
        {"engine.cache_bytes_written",
         ratio(n(oneshot.bytes_written), n(oneshot.scan_s.size())), "B"},
        {"engine.cache_hits", n(c.cache_hits), "count"},
        {"engine.cache_misses", n(c.cache_misses), "count"},
        {"engine.cache_stores", n(c.cache_stores), "count"},
        {"engine.critical_path_s", median(critical), "s"},
        {"engine.busy_share", median(busy), "ratio"},
        {"service.queue_wait_ms", median(served.queue_wait_ms), "ms"},
        {"service.admit_ms", 1e3 * median(served.admit_s), "ms"},
        {"service.bytes_out", served.bytes_out, "B"},
        {"service.refused", n(served.refused), "count"},
        {"obs.trace_overhead_share", ratio(trace.traced_s, trace.untraced_s) - 1.0,
         "ratio"},
        {"setup.model_s", fx->setup.model_s, "s"},
        {"setup.database_s", fx->setup.database_s, "s"},
        {"setup.images_s", fx->setup.images_s, "s"},
        {"setup.warmup_s", fx->setup.warmup_s, "s"},
    };
    // Self time per replayed scan of each layer (the benchmark's own
    // bench.* orchestration spans excluded).
    for (const char* layer : {"dl", "vm", "fuzz", "binary", "features",
                              "retrieval", "core", "similarity", "diff",
                              "firmware", "engine"}) {
      const auto it = summary.by_layer.find(layer);
      outcome.per_layer.push_back(
          {std::string("self_ms.") + layer,
           it == summary.by_layer.end() ? 0.0 : it->second.self_ns * ms_per_scan,
           "ms"});
    }
  }

  outcome.attempted = gate.attempted;
  outcome.failed = gate.failed;
  outcome.correct = gate.failed == 0;
  return outcome;
}

}  // namespace perfbench
