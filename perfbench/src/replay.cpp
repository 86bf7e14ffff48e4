#include "replay.h"

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>

#include "binary/cfg.h"
#include "features/static_features.h"
#include "fuzz/fuzzer.h"
#include "retrieval/index.h"
#include "similarity/similarity.h"
#include "spans.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace perfbench {

using namespace patchecko;

void ReplayCounters::add(const ReplayCounters& o) {
  scans += o.scans;
  functions += o.functions;
  pairs_scored += o.pairs_scored;
  top_k_queries += o.top_k_queries;
  shortlisted += o.shortlisted;
  stage1_candidates += o.stage1_candidates;
  validated += o.validated;
  vm_runs += o.vm_runs;
  vm_steps += o.vm_steps;
  cache_finds += o.cache_finds;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cache_stores += o.cache_stores;
}

namespace {

/// Runs fn(i) for i in [0, n) on `jobs` pool workers that claim indices in
/// order (the engine's ready-queue order), nesting their spans under
/// `parent`. Each worker gets its own counters, merged at the end.
template <typename Fn>
void run_jobs(std::size_t n, unsigned jobs, std::uint64_t parent,
              ReplayCounters& counters, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex merge;
  const std::uint64_t request = current_request();
  parallel_for(jobs, jobs, [&](std::size_t) {
    const ParentScope scope(parent, request);
    ReplayCounters local;
    for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i, local);
    const std::lock_guard<std::mutex> lock(merge);
    counters.add(local);
  });
}

bool same_outcome(DetectionOutcome a, DetectionOutcome b) {
  a.dl_seconds = b.dl_seconds = 0.0;
  a.da_seconds = b.da_seconds = 0.0;
  return serialize_outcome(a) == serialize_outcome(b);
}

/// Patchecko::detect (modes off/on), rebuilt from the layers' functions.
DetectionOutcome replay_detect(const ReplayTarget& target,
                               const CveEntry& entry,
                               const AnalyzedLibrary& library,
                               bool query_is_patched, ReplayCounters& c) {
  const Span span("core.detect");
  const PipelineConfig& config = target.pipeline;
  DetectionOutcome outcome;
  outcome.cve_id = entry.spec.cve_id;
  outcome.query_is_patched = query_is_patched;
  outcome.total = library.features.size();

  const StaticFeatureVector& query =
      query_is_patched ? entry.patched_features : entry.vulnerable_features;
  const ArchRefs* refs = entry.refs_for(library.binary->arch);
  const DynamicProfile& query_profile =
      refs != nullptr
          ? (query_is_patched ? refs->patched_profile
                              : refs->vulnerable_profile)
          : (query_is_patched ? entry.patched_profile
                              : entry.vulnerable_profile);

  retrieval::PrefilterMode prefilter = config.prefilter_mode;
  if (prefilter != retrieval::PrefilterMode::off &&
      (config.prefilter_top_k == 0 || library.index == nullptr ||
       library.features.size() < config.prefilter_min_total)) {
    outcome.prefilter_exact_fallback = true;
    prefilter = retrieval::PrefilterMode::off;
  }
  if (prefilter == retrieval::PrefilterMode::verify)
    throw std::runtime_error("replay does not model prefilter verify mode");
  outcome.prefilter_mode = prefilter;
  const bool shortlisting = prefilter == retrieval::PrefilterMode::on;
  std::vector<std::uint32_t> shortlist;
  if (shortlisting) {
    const Span top_k("retrieval.top_k");
    shortlist = library.index->top_k(retrieval::quantize(query),
                                     config.prefilter_top_k);
    outcome.prefilter_shortlist = shortlist.size();
    ++c.top_k_queries;
    c.shortlisted += shortlist.size();
  }

  // --- Stage 1: score, then classify exactly like the pipeline ------------
  const Stopwatch dl_watch;
  std::vector<float> scores(shortlisting ? shortlist.size() : outcome.total);
  {
    const Span dl("dl.score");
    for (std::size_t s = 0; s < scores.size(); ++s)
      scores[s] = target.model->score(
          query, library.features[shortlisting ? shortlist[s] : s]);
  }
  c.pairs_scored += scores.size();
  std::vector<float> candidate_scores;
  std::size_t shortlist_pos = 0;
  for (std::size_t i = 0; i < outcome.total; ++i) {
    const bool is_target =
        library.binary->functions[i].source_uid == entry.target_uid;
    float score = 0.0f;
    if (shortlisting) {
      if (shortlist_pos >= shortlist.size() || shortlist[shortlist_pos] != i) {
        ++(is_target ? outcome.false_negatives : outcome.true_negatives);
        continue;
      }
      score = scores[shortlist_pos++];
    } else {
      score = scores[i];
    }
    if (score >= config.detection_threshold) {
      outcome.candidates.push_back(i);
      candidate_scores.push_back(score);
      ++(is_target ? outcome.true_positives : outcome.false_positives);
    } else {
      ++(is_target ? outcome.false_negatives : outcome.true_negatives);
    }
  }
  outcome.dl_seconds = dl_watch.elapsed_seconds();
  c.stage1_candidates += outcome.candidates.size();

  // --- Stage 2: validate, profile, rank ------------------------------------
  const Stopwatch da_watch;
  const Machine machine(*library.binary, config.machine);
  std::vector<std::optional<CandidateProfile>> slots(outcome.candidates.size());
  std::vector<std::int64_t> crash_envs(outcome.candidates.size(), -1);
  std::vector<CandidateProfile> profiles;
  for (std::size_t k = 0; k < outcome.candidates.size(); ++k) {
    const std::size_t index = outcome.candidates[k];
    std::size_t crash_env = 0;
    bool valid = false;
    {
      const Span validate("fuzz.validate");
      valid = validate_candidate(machine, index, entry.environments, &crash_env);
    }
    if (!valid) {
      crash_envs[k] = static_cast<std::int64_t>(crash_env);
      continue;
    }
    DynamicProfile profile;
    {
      // profile_function is one Machine::run per environment with the 21
      // dynamic features collected: the VM layer's work.
      const Span run("vm.profile");
      profile = profile_function(machine, index, entry.environments);
    }
    c.vm_runs += profile.per_env.size();
    for (const auto& features : profile.per_env)
      if (features.has_value()) c.vm_steps += features->instructions;
    slots[k] = CandidateProfile{index, std::move(profile), candidate_scores[k]};
    profiles.push_back(*slots[k]);
  }
  outcome.executed = profiles.size();
  c.validated += profiles.size();
  {
    const Span rank("similarity.rank");
    outcome.ranking =
        rank_by_similarity(query_profile, profiles, config.minkowski_p);
  }
  for (std::size_t r = 0; r < outcome.ranking.size(); ++r)
    if (library.binary->functions[outcome.ranking[r].function_index]
            .source_uid == entry.target_uid) {
      outcome.rank_of_target = static_cast<int>(r) + 1;
      break;
    }
  outcome.da_seconds = da_watch.elapsed_seconds();

  // --- decision provenance, as the pipeline records it ---------------------
  obs::StageRecord& provenance = outcome.provenance;
  provenance.threshold = config.detection_threshold;
  provenance.minkowski_p = config.minkowski_p;
  provenance.total = outcome.total;
  provenance.executed = outcome.executed;
  provenance.prefilter = static_cast<std::uint8_t>(prefilter);
  provenance.prefilter_shortlist = outcome.prefilter_shortlist;
  for (std::size_t k = 0; k < outcome.candidates.size(); ++k) {
    obs::CandidateRecord record;
    record.function_index = outcome.candidates[k];
    record.dl_score = candidate_scores[k];
    record.validated = slots[k].has_value();
    record.crash_env = crash_envs[k];
    if (record.validated) {
      record.env_distances = per_env_distances(
          query_profile, slots[k]->profile, config.minkowski_p);
      for (std::size_t r = 0; r < outcome.ranking.size(); ++r)
        if (outcome.ranking[r].function_index == outcome.candidates[k]) {
          record.distance = outcome.ranking[r].distance;
          record.rank = static_cast<std::int64_t>(r) + 1;
          break;
        }
    }
    provenance.candidates.push_back(std::move(record));
  }
  return outcome;
}

}  // namespace

ScanReport replay_scan(const ReplayTarget& target, const std::string& path,
                       const std::vector<std::string>& cve_ids,
                       std::uint64_t request_id, ReplayCounters& counters) {
  const RequestScope request_scope(request_id);
  const Span root("bench.scan");
  ++counters.scans;
  std::optional<FirmwareImage> image;
  {
    const Span decode("firmware.decode");
    image = load_firmware(path);
  }
  if (!image) throw std::runtime_error("replay cannot load " + path);

  // Entry selection and library slots, as ScanEngine::run builds them.
  const std::set<std::string> only(cve_ids.begin(), cve_ids.end());
  std::vector<const CveEntry*> entries;
  for (const CveEntry& entry : target.database->entries())
    if (only.empty() || only.count(entry.spec.cve_id) != 0)
      entries.push_back(&entry);
  std::map<std::string, const LibraryBinary*> by_name;
  for (const LibraryBinary& library : image->libraries)
    by_name[library.name] = &library;

  struct Slot {
    const LibraryBinary* binary = nullptr;
    AnalyzedLibrary analyzed;
    Digest digest;
  };
  std::vector<Slot> slots;
  std::map<std::string, std::size_t> slot_of;
  std::vector<std::size_t> entry_slot(entries.size(), 0);
  ScanReport report;
  report.request_id = request_id;
  report.results.resize(entries.size());
  for (std::size_t e = 0; e < entries.size(); ++e) {
    CveScanResult& result = report.results[e];
    result.cve_id = entries[e]->spec.cve_id;
    result.library = entries[e]->spec.library;
    const auto found = by_name.find(result.library);
    if (found == by_name.end()) {
      result.library_missing = true;
      continue;
    }
    const auto [it, inserted] = slot_of.try_emplace(result.library, slots.size());
    if (inserted) slots.push_back(Slot{found->second, {}, {}});
    entry_slot[e] = it->second;
  }
  report.analyzed_libraries = slots.size();

  PipelineConfig pipeline_config = target.pipeline;
  pipeline_config.worker_threads = target.jobs;
  const Patchecko pipeline(target.model, pipeline_config);
  Digest model_digest, config_digest;
  {
    const Span digest("engine.digest");
    model_digest = digest_model(*target.model);
    config_digest = digest_pipeline_config(pipeline_config);
  }
  ResultCache& cache = *target.cache;
  const bool prefilter =
      pipeline_config.prefilter_mode != retrieval::PrefilterMode::off;

  // --- analyze: one job per library ----------------------------------------
  run_jobs(slots.size(), target.jobs, root.id(), counters,
           [&](std::size_t s, ReplayCounters& c) {
    const Span job("engine.job.analyze");
    Slot& slot = slots[s];
    const LibraryBinary& binary = *slot.binary;
    {
      const Span digest("engine.digest");
      slot.digest = digest_library(binary);
    }
    const std::string key = features_cache_key(slot.digest);
    slot.analyzed.binary = &binary;
    bool hit = false;
    {
      const Span find("engine.cache_find");
      auto features = cache.find_features(key);
      if (features && features->size() == binary.functions.size()) {
        slot.analyzed.features = std::move(*features);
        hit = true;
      }
    }
    ++c.cache_finds;
    ++(hit ? c.cache_hits : c.cache_misses);
    if (!hit) {
      slot.analyzed.features.resize(binary.functions.size());
      for (std::size_t f = 0; f < binary.functions.size(); ++f) {
        std::optional<Cfg> cfg;
        {
          const Span build("binary.cfg");
          cfg = build_cfg(binary.functions[f]);
        }
        const Span extract("features.extract");
        slot.analyzed.features[f] =
            extract_static_features(binary.functions[f], *cfg);
      }
      c.functions += binary.functions.size();
      const Span store("engine.cache_store");
      cache.store_features(key, slot.analyzed.features);
      ++c.cache_stores;
    }
    if (prefilter) {
      const Span build("retrieval.index_build");
      slot.analyzed.index =
          retrieval::FunctionIndex::build_shared(slot.analyzed.features);
    }
  });

  // --- detect: one job per CVE, both query directions ----------------------
  run_jobs(entries.size(), target.jobs, root.id(), counters,
           [&](std::size_t e, ReplayCounters& c) {
    CveScanResult& result = report.results[e];
    if (result.library_missing) return;
    const Span job("engine.job.detect");
    const CveEntry& entry = *entries[e];
    const Slot& slot = slots[entry_slot[e]];
    Digest entry_digest;
    {
      const Span digest("engine.digest");
      entry_digest = digest_entry(entry);
    }
    for (const bool query_is_patched : {false, true}) {
      DetectionOutcome& outcome =
          query_is_patched ? result.from_patched : result.from_vulnerable;
      const std::string key =
          outcome_cache_key(slot.digest, model_digest, config_digest,
                            entry_digest, query_is_patched);
      std::optional<DetectionOutcome> cached;
      {
        const Span find("engine.cache_find");
        cached = cache.find_outcome(key);
      }
      ++c.cache_finds;
      if (cached) {
        ++c.cache_hits;
        outcome = std::move(*cached);
        continue;
      }
      ++c.cache_misses;
      outcome = replay_detect(target, entry, slot.analyzed, query_is_patched, c);
      if (target.reference != nullptr) {
        const Span check("bench.check");
        const auto expected = target.reference->find_outcome(key);
        if (!expected || !same_outcome(outcome, *expected))
          throw std::runtime_error("replayed detect of " + entry.spec.cve_id +
                                   " differs from the engine's outcome");
      }
      const Span store("engine.cache_store");
      cache.store_outcome(key, outcome);
      ++c.cache_stores;
    }
  });

  // --- patch: the differential stage per CVE -------------------------------
  run_jobs(entries.size(), target.jobs, root.id(), counters,
           [&](std::size_t e, ReplayCounters&) {
    CveScanResult& result = report.results[e];
    if (result.library_missing) return;
    const Span job("engine.job.patch");
    const Span patch("diff.patch");
    result.report = pipeline.report_from(*entries[e],
                                         slots[entry_slot[e]].analyzed,
                                         result.from_vulnerable,
                                         result.from_patched);
  });
  return report;
}

}  // namespace perfbench
