#include "core/pipeline.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace patchecko {

namespace {

/// Stage counters and latency histograms behind `--metrics`. The stage
/// stopwatches the pipeline keeps anyway (dl_seconds/da_seconds) feed the
/// histograms, so enabling metrics adds no extra clock reads per stage.
struct PipelineMetrics {
  obs::Counter& functions_analyzed =
      obs::Registry::global().counter("pipeline.functions_analyzed");
  obs::Counter& candidates_stage1 =
      obs::Registry::global().counter("pipeline.candidates_stage1");
  obs::Counter& candidates_executed =
      obs::Registry::global().counter("pipeline.candidates_executed");
  obs::Counter& candidates_pruned =
      obs::Registry::global().counter("pipeline.candidates_pruned");
  obs::Histogram& analyze_seconds =
      obs::Registry::global().histogram("pipeline.analyze_seconds");
  obs::Histogram& dl_seconds =
      obs::Registry::global().histogram("pipeline.dl_seconds");
  obs::Histogram& da_seconds =
      obs::Registry::global().histogram("pipeline.da_seconds");
  obs::Histogram& patch_seconds =
      obs::Registry::global().histogram("pipeline.patch_seconds");

  // Stage-1 retrieval prefilter (src/retrieval). `prefilter_recall` is only
  // recorded in verify mode: its mean (sum/count) is the measured
  // shortlist-vs-exact recall across detect calls.
  obs::Counter& prefilter_shortlisted =
      obs::Registry::global().counter("pipeline.prefilter_shortlisted");
  obs::Counter& prefilter_pruned =
      obs::Registry::global().counter("pipeline.prefilter_pruned");
  obs::Counter& prefilter_exact_fallbacks =
      obs::Registry::global().counter("pipeline.prefilter_exact_fallbacks");
  obs::Counter& prefilter_exact_candidates =
      obs::Registry::global().counter("pipeline.prefilter_exact_candidates");
  obs::Counter& prefilter_recalled =
      obs::Registry::global().counter("pipeline.prefilter_recalled");
  obs::Histogram& prefilter_recall =
      obs::Registry::global().histogram("pipeline.prefilter_recall");
  obs::Counter& index_builds =
      obs::Registry::global().counter("retrieval.index_builds");
  obs::Counter& index_vectors =
      obs::Registry::global().counter("retrieval.index_vectors");
  obs::Histogram& index_build_seconds =
      obs::Registry::global().histogram("retrieval.index_build_seconds");

  static PipelineMetrics& get() {
    static PipelineMetrics metrics;
    return metrics;
  }
};

inline bool is_cancelled(const std::atomic<bool>* cancel) {
  return cancel != nullptr && cancel->load(std::memory_order_relaxed);
}

}  // namespace

AnalyzedLibrary analyze_library(const LibraryBinary& library,
                                unsigned worker_threads,
                                bool build_retrieval_index) {
  const obs::ScopedSpan span("pipeline.analyze");
  const Stopwatch watch;
  AnalyzedLibrary analyzed;
  analyzed.binary = &library;
  analyzed.features.resize(library.functions.size());
  parallel_for(library.functions.size(), worker_threads, [&](std::size_t i) {
    analyzed.features[i] = extract_static_features(library.functions[i]);
  });
  PipelineMetrics::get().functions_analyzed.add(library.functions.size());
  PipelineMetrics::get().analyze_seconds.record(watch.elapsed_seconds());
  if (build_retrieval_index) ensure_retrieval_index(analyzed);
  return analyzed;
}

void ensure_retrieval_index(AnalyzedLibrary& analyzed) {
  if (analyzed.index != nullptr) return;
  const obs::ScopedSpan span("retrieval.index_build");
  analyzed.index = retrieval::FunctionIndex::build_shared(analyzed.features);
  PipelineMetrics& metrics = PipelineMetrics::get();
  metrics.index_builds.add(1);
  metrics.index_vectors.add(analyzed.features.size());
  metrics.index_build_seconds.record(analyzed.index->stats().build_seconds);
}

Patchecko::Patchecko(const SimilarityModel* model, PipelineConfig config)
    : model_(model), config_(config) {}

DetectionOutcome Patchecko::detect(const CveEntry& entry,
                                   const AnalyzedLibrary& target,
                                   bool query_is_patched,
                                   const std::atomic<bool>* cancel,
                                   const retrieval::QuantizedVector* query_code)
    const {
  DetectionOutcome outcome;
  outcome.cve_id = entry.spec.cve_id;
  outcome.query_is_patched = query_is_patched;
  outcome.total = target.features.size();

  // Stage 1 matches the cross-platform (db-arch) reference features; Stage 2
  // compares against the reference profile collected on the target's own
  // architecture (the paper runs the injected reference binary on-device).
  const StaticFeatureVector& query_features =
      query_is_patched ? entry.patched_features : entry.vulnerable_features;
  const ArchRefs* refs = entry.refs_for(target.binary->arch);
  const DynamicProfile& query_profile =
      refs != nullptr
          ? (query_is_patched ? refs->patched_profile
                              : refs->vulnerable_profile)
          : (query_is_patched ? entry.patched_profile
                              : entry.vulnerable_profile);

  // --- Stage 1 prefilter ----------------------------------------------------
  // Shortlist the target functions nearest to the query in quantized feature
  // space (index.h) so the model scores K pairs instead of all of them.
  // Small targets, a zero K, or a missing index fall back to the exact path.
  retrieval::PrefilterMode prefilter = config_.prefilter_mode;
  if (prefilter != retrieval::PrefilterMode::off &&
      (config_.prefilter_top_k == 0 || target.index == nullptr ||
       target.features.size() < config_.prefilter_min_total)) {
    outcome.prefilter_exact_fallback = true;
    prefilter = retrieval::PrefilterMode::off;
  }
  outcome.prefilter_mode = prefilter;
  std::vector<std::uint32_t> shortlist;
  if (prefilter != retrieval::PrefilterMode::off) {
    const obs::ScopedSpan prefilter_span("pipeline.detect.prefilter");
    shortlist = target.index->top_k(
        query_code != nullptr ? *query_code : retrieval::quantize(query_features),
        config_.prefilter_top_k);
    outcome.prefilter_shortlist = shortlist.size();
  }

  // --- Stage 1: deep-learning classification --------------------------------
  // `on` scores only shortlisted functions; everything else is classified
  // negative unscored. `verify` scores every function (measuring what the
  // exact scan would have accepted) but classifies through the shortlist
  // exactly like `on`, so both modes produce identical outcomes.
  Stopwatch dl_watch;
  std::vector<float> candidate_scores;
  std::vector<std::pair<std::size_t, float>> verify_pruned;  // exact-only hits
  {
    const obs::ScopedSpan dl_span("pipeline.detect.dl");
    // Score first, fanning fixed blocks out over the workers, then classify
    // in index order, so outcomes do not depend on the worker count. A
    // cancellation while scoring leaves stage 1 unclassified.
    const bool shortlist_only = prefilter == retrieval::PrefilterMode::on;
    std::vector<float> scores(shortlist_only ? shortlist.size()
                                             : target.features.size());
    outcome.cancelled = !model_->score_many(
        query_features, target.features.data(),
        shortlist_only ? shortlist.data() : nullptr, scores.size(),
        scores.data(), config_.worker_threads, cancel);
    std::size_t shortlist_pos = 0;
    for (std::size_t i = 0; i < target.features.size() && !outcome.cancelled;
         ++i) {
      bool shortlisted = true;
      if (prefilter != retrieval::PrefilterMode::off) {
        shortlisted = shortlist_pos < shortlist.size() &&
                      shortlist[shortlist_pos] == i;
        if (shortlisted) ++shortlist_pos;
      }
      const bool is_target =
          target.binary->functions[i].source_uid == entry.target_uid;
      if (shortlist_only && !shortlisted) {
        // Pruned before the model ran; a true match here is the prefilter's
        // recall loss and lands in false_negatives like any stage-1 miss.
        if (is_target)
          ++outcome.false_negatives;
        else
          ++outcome.true_negatives;
        continue;
      }
      const float score =
          shortlist_only ? scores[shortlist_pos - 1] : scores[i];
      const bool accepted = score >= config_.detection_threshold;
      if (prefilter == retrieval::PrefilterMode::verify && accepted) {
        ++outcome.prefilter_exact_candidates;
        if (shortlisted)
          ++outcome.prefilter_recalled;
        else
          verify_pruned.emplace_back(i, score);
      }
      if (accepted && shortlisted) {
        outcome.candidates.push_back(i);
        candidate_scores.push_back(score);
        if (is_target)
          ++outcome.true_positives;
        else
          ++outcome.false_positives;
      } else {
        if (is_target)
          ++outcome.false_negatives;
        else
          ++outcome.true_negatives;
      }
    }
  }
  outcome.dl_seconds = dl_watch.elapsed_seconds();

  // --- Stage 2: execution validation + dynamic ranking ----------------------
  // Candidates validate and profile independently, so this fans out over
  // worker threads (Machine::run keeps its state in per-thread scratch).
  // Validation and profiling share one run per environment.
  Stopwatch da_watch;
  const Machine machine(*target.binary, config_.machine);
  std::vector<CandidateProfile> profiles;
  std::vector<std::optional<CandidateProfile>> slots(
      outcome.candidates.size());
  std::vector<std::int64_t> crash_envs(outcome.candidates.size(), -1);
  {
    const obs::ScopedSpan exec_span("pipeline.detect.exec");
    parallel_for(outcome.candidates.size(), config_.worker_threads,
                 [&](std::size_t c) {
                   // Cooperative cancellation: already-claimed candidates
                   // drain as no-ops so parallel_for still joins cleanly.
                   if (is_cancelled(cancel)) return;
                   const std::size_t index = outcome.candidates[c];
                   std::size_t crash_env = 0;
                   std::optional<DynamicProfile> profile = validate_and_profile(
                       machine, index, entry.environments, &crash_env);
                   if (!profile) {
                     crash_envs[c] = static_cast<std::int64_t>(crash_env);
                     return;
                   }
                   slots[c] = CandidateProfile{index, std::move(*profile),
                                               candidate_scores[c]};
                 });
    profiles.reserve(slots.size());
    for (const auto& slot : slots)
      if (slot.has_value()) profiles.push_back(*slot);
  }
  outcome.executed = profiles.size();
  {
    const obs::ScopedSpan rank_span("pipeline.detect.rank");
    outcome.ranking =
        rank_by_similarity(query_profile, profiles, config_.minkowski_p);
    for (std::size_t r = 0; r < outcome.ranking.size(); ++r) {
      const std::size_t index = outcome.ranking[r].function_index;
      if (target.binary->functions[index].source_uid == entry.target_uid) {
        outcome.rank_of_target = static_cast<int>(r) + 1;
        break;
      }
    }
  }
  outcome.da_seconds = da_watch.elapsed_seconds();
  if (is_cancelled(cancel)) outcome.cancelled = true;

  // --- decision provenance ---------------------------------------------------
  outcome.provenance.threshold = config_.detection_threshold;
  outcome.provenance.minkowski_p = config_.minkowski_p;
  outcome.provenance.total = outcome.total;
  outcome.provenance.executed = outcome.executed;
  outcome.provenance.prefilter = static_cast<std::uint8_t>(prefilter);
  outcome.provenance.prefilter_shortlist = outcome.prefilter_shortlist;
  outcome.provenance.prefilter_exact = outcome.prefilter_exact_candidates;
  outcome.provenance.prefilter_recalled = outcome.prefilter_recalled;
  outcome.provenance.candidates.reserve(outcome.candidates.size() +
                                        verify_pruned.size());
  // Merge scored candidates with verify-mode prefilter-pruned hits, ascending
  // by function index (both inputs are already ascending).
  std::size_t pruned_pos = 0;
  for (std::size_t c = 0; c < outcome.candidates.size(); ++c) {
    while (pruned_pos < verify_pruned.size() &&
           verify_pruned[pruned_pos].first < outcome.candidates[c]) {
      obs::CandidateRecord pruned;
      pruned.function_index = verify_pruned[pruned_pos].first;
      pruned.dl_score = verify_pruned[pruned_pos].second;
      pruned.prefiltered = true;
      outcome.provenance.candidates.push_back(std::move(pruned));
      ++pruned_pos;
    }
    obs::CandidateRecord record;
    record.function_index = outcome.candidates[c];
    record.dl_score = candidate_scores[c];
    record.validated = slots[c].has_value();
    record.crash_env = crash_envs[c];
    if (record.validated) {
      record.env_distances = per_env_distances(
          query_profile, slots[c]->profile, config_.minkowski_p);
      for (std::size_t r = 0; r < outcome.ranking.size(); ++r) {
        if (outcome.ranking[r].function_index == outcome.candidates[c]) {
          record.distance = outcome.ranking[r].distance;
          record.rank = static_cast<std::int64_t>(r) + 1;
          break;
        }
      }
    }
    outcome.provenance.candidates.push_back(std::move(record));
  }
  for (; pruned_pos < verify_pruned.size(); ++pruned_pos) {
    obs::CandidateRecord pruned;
    pruned.function_index = verify_pruned[pruned_pos].first;
    pruned.dl_score = verify_pruned[pruned_pos].second;
    pruned.prefiltered = true;
    outcome.provenance.candidates.push_back(std::move(pruned));
  }
  if (obs::events_enabled()) {
    obs::EventLog::global().emit(
        obs::Severity::info, "pipeline.stage1",
        {obs::Field::text("cve", entry.spec.cve_id),
         obs::Field::text("query", query_is_patched ? "patched" : "vulnerable"),
         obs::Field::u64("total", outcome.total),
         obs::Field::u64("candidates", outcome.candidates.size())});
    for (const obs::CandidateRecord& record : outcome.provenance.candidates)
      if (!record.validated)
        obs::EventLog::global().emit(
            obs::Severity::debug, "pipeline.candidate_pruned",
            {obs::Field::text("cve", entry.spec.cve_id),
             obs::Field::u64("function", record.function_index),
             obs::Field::i64("crash_env", record.crash_env)});
    obs::EventLog::global().emit(
        obs::Severity::info, "pipeline.ranked",
        {obs::Field::text("cve", entry.spec.cve_id),
         obs::Field::text("query", query_is_patched ? "patched" : "vulnerable"),
         obs::Field::u64("executed", outcome.executed),
         obs::Field::i64("rank_of_target", outcome.rank_of_target)});
  }

  PipelineMetrics& metrics = PipelineMetrics::get();
  metrics.candidates_stage1.add(outcome.candidates.size());
  metrics.candidates_executed.add(outcome.executed);
  metrics.candidates_pruned.add(outcome.candidates.size() - outcome.executed);
  metrics.dl_seconds.record(outcome.dl_seconds);
  metrics.da_seconds.record(outcome.da_seconds);
  if (outcome.prefilter_exact_fallback) metrics.prefilter_exact_fallbacks.add(1);
  if (prefilter != retrieval::PrefilterMode::off) {
    metrics.prefilter_shortlisted.add(outcome.prefilter_shortlist);
    metrics.prefilter_pruned.add(outcome.total - outcome.prefilter_shortlist);
    if (prefilter == retrieval::PrefilterMode::verify) {
      metrics.prefilter_exact_candidates.add(outcome.prefilter_exact_candidates);
      metrics.prefilter_recalled.add(outcome.prefilter_recalled);
      metrics.prefilter_recall.record(
          outcome.prefilter_exact_candidates == 0
              ? 1.0
              : static_cast<double>(outcome.prefilter_recalled) /
                    static_cast<double>(outcome.prefilter_exact_candidates));
    }
  }
  return outcome;
}

PatchDecision Patchecko::analyze_patch(const CveEntry& entry,
                                       const AnalyzedLibrary& target,
                                       std::size_t target_function) const {
  const Machine machine(*target.binary, config_.machine);
  return decide_patch(
      entry, target, target_function,
      profile_function(machine, target_function, entry.environments));
}

PatchDecision Patchecko::decide_patch(
    const CveEntry& entry, const AnalyzedLibrary& target,
    std::size_t target_function, const DynamicProfile& target_profile) const {
  const FunctionBinary& fn = target.binary->functions[target_function];
  const StaticFeatureVector target_features = target.features[target_function];
  const DiffSignature target_signature = make_signature(fn);

  // Prefer the architecture-matched references: comparing an ARM target to
  // x86 references would drown patch-sized deltas in codegen noise.
  const ArchRefs* refs = entry.refs_for(target.binary->arch);
  const StaticFeatureVector& ref_vuln_features =
      refs != nullptr ? refs->vulnerable_features : entry.vulnerable_features;
  const StaticFeatureVector& ref_patch_features =
      refs != nullptr ? refs->patched_features : entry.patched_features;
  const DiffSignature& ref_vuln_signature =
      refs != nullptr ? refs->vulnerable_signature
                      : entry.vulnerable_signature;
  const DiffSignature& ref_patch_signature =
      refs != nullptr ? refs->patched_signature : entry.patched_signature;
  const DynamicProfile& ref_vuln_profile =
      refs != nullptr ? refs->vulnerable_profile : entry.vulnerable_profile;
  const DynamicProfile& ref_patch_profile =
      refs != nullptr ? refs->patched_profile : entry.patched_profile;

  const double dist_vulnerable = profile_distance(
      ref_vuln_profile, target_profile, config_.minkowski_p);
  const double dist_patched = profile_distance(
      ref_patch_profile, target_profile, config_.minkowski_p);

  return detect_patch(ref_vuln_features, ref_patch_features, target_features,
                      ref_vuln_signature, ref_patch_signature,
                      target_signature, dist_vulnerable, dist_patched);
}

PatchReport Patchecko::full_report(const CveEntry& entry,
                                   const AnalyzedLibrary& target) const {
  // Section II-B: "PATCHECKO will ... restart the whole process based on the
  // patched version of the vulnerable function" — both references always
  // drive a search, because either one alone can miss (the vulnerable query
  // misses heavily-patched targets, the paper's CVE-2017-13209 case).
  const DetectionOutcome from_vulnerable =
      detect(entry, target, /*query_is_patched=*/false);
  const DetectionOutcome from_patched =
      detect(entry, target, /*query_is_patched=*/true);
  return report_from(entry, target, from_vulnerable, from_patched);
}

PatchReport Patchecko::report_from(const CveEntry& entry,
                                   const AnalyzedLibrary& target,
                                   const DetectionOutcome& from_vulnerable,
                                   const DetectionOutcome& from_patched,
                                   const std::atomic<bool>* cancel) const {
  const obs::ScopedSpan span("pipeline.patch");
  const Stopwatch watch;
  PatchReport report;
  report.cve_id = entry.spec.cve_id;

  // Pool the top candidates of both rankings; the differential subject is
  // the one nearest to *either* reference profile (a false positive is far
  // from both). No ground-truth knowledge is involved.
  std::vector<std::size_t> pool;
  for (const DetectionOutcome* outcome : {&from_vulnerable, &from_patched}) {
    const std::size_t considered =
        std::min(config_.patch_candidates, outcome->ranking.size());
    for (std::size_t r = 0; r < considered; ++r) {
      const std::size_t index = outcome->ranking[r].function_index;
      if (std::find(pool.begin(), pool.end(), index) == pool.end())
        pool.push_back(index);
    }
  }
  if (pool.empty()) {
    PipelineMetrics::get().patch_seconds.record(watch.elapsed_seconds());
    return report;
  }

  const Machine machine(*target.binary, config_.machine);
  const ArchRefs* refs = entry.refs_for(target.binary->arch);
  const DynamicProfile& ref_vuln_profile =
      refs != nullptr ? refs->vulnerable_profile : entry.vulnerable_profile;
  const DynamicProfile& ref_patch_profile =
      refs != nullptr ? refs->patched_profile : entry.patched_profile;
  std::size_t best = pool.front();
  std::size_t best_slot = 0;
  double best_distance = std::numeric_limits<double>::infinity();
  std::size_t best_effects = 0;
  report.pool.reserve(pool.size());
  std::vector<DynamicProfile> profiles;  // index-aligned with report.pool
  profiles.reserve(pool.size());
  for (std::size_t index : pool) {
    if (is_cancelled(cancel)) break;
    const DynamicProfile& profile = profiles.emplace_back(
        profile_function(machine, index, entry.environments));
    obs::PatchCandidateRecord member;
    member.function_index = index;
    member.distance_vulnerable =
        profile_distance(ref_vuln_profile, profile, config_.minkowski_p);
    member.distance_patched =
        profile_distance(ref_patch_profile, profile, config_.minkowski_p);
    member.effect_matches_vulnerable =
        effect_matches(ref_vuln_profile, profile);
    member.effect_matches_patched = effect_matches(ref_patch_profile, profile);
    const double distance =
        std::min(member.distance_vulnerable, member.distance_patched);
    // Trace-distance ties (count-identical lookalikes) break on memory-
    // effect agreement with either reference: only the true match computes
    // the same values, not just the same instruction counts.
    const std::size_t effects =
        std::max<std::size_t>(member.effect_matches_vulnerable,
                              member.effect_matches_patched);
    if (distance < best_distance ||
        (distance == best_distance && effects > best_effects)) {
      best_distance = distance;
      best_effects = effects;
      best = index;
      best_slot = report.pool.size();
    }
    report.pool.push_back(member);
  }
  if (report.pool.empty()) {
    // Cancelled before any pool member was profiled; no verdict to render.
    PipelineMetrics::get().patch_seconds.record(watch.elapsed_seconds());
    return report;
  }
  report.pool[best_slot].chosen = true;
  report.matched_function = best;
  report.decision = decide_patch(entry, target, best, profiles[best_slot]);
  if (obs::events_enabled()) {
    const PatchDecision& decision = *report.decision;
    obs::EventLog::global().emit(
        obs::Severity::info, "pipeline.patch_verdict",
        {obs::Field::text("cve", entry.spec.cve_id),
         obs::Field::u64("function", best),
         obs::Field::text("verdict", decision.verdict == PatchVerdict::patched
                                         ? "patched"
                                         : "vulnerable"),
         obs::Field::f64("votes_vulnerable", decision.votes_vulnerable),
         obs::Field::f64("votes_patched", decision.votes_patched)});
  }
  PipelineMetrics::get().patch_seconds.record(watch.elapsed_seconds());
  return report;
}

}  // namespace patchecko
