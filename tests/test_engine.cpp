// Tests for the batch scan engine: the work-stealing pool, the
// content-addressed cache ((de)serialization, key derivation, invalidation),
// scheduler dependency ordering, and end-to-end determinism across job
// counts and cache temperatures.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "dl/trainer.h"
#include "engine/cache.h"
#include "engine/engine.h"
#include "engine/thread_pool.h"
#include "fuzz/fuzzer.h"
#include "obs/decision.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "similarity/similarity.h"
#include "vm/machine.h"

namespace patchecko {
namespace {

// Small shared universe: a lightly trained model plus a scaled-down corpus.
// Model quality is irrelevant here (the pipeline tests cover accuracy);
// the engine tests only need deterministic, realistically shaped inputs.
struct EngineUniverse {
  SimilarityModel model;
  std::unique_ptr<EvalCorpus> corpus;
  std::unique_ptr<CveDatabase> database;
  FirmwareImage firmware;
  std::vector<std::string> some_cves;  // 4 CVEs across >= 2 libraries

  EngineUniverse() {
    TrainerConfig trainer;
    trainer.dataset.library_count = 16;
    trainer.dataset.functions_per_library = 12;
    trainer.epochs = 6;
    model = train_similarity_model(trainer).model;

    EvalConfig eval;
    eval.scale = 0.03;
    corpus = std::make_unique<EvalCorpus>(eval);
    database = std::make_unique<CveDatabase>(*corpus, DatabaseConfig{});
    firmware = corpus->build_firmware(android_things_device());
    for (const CveEntry& entry : database->entries()) {
      if (some_cves.size() == 4) break;
      some_cves.push_back(entry.spec.cve_id);
    }
  }

  ScanRequest request() const {
    ScanRequest request;
    request.model = &model;
    request.firmware = &firmware;
    request.database = database.get();
    request.cve_ids = some_cves;
    return request;
  }
};

const EngineUniverse& universe() {
  static EngineUniverse instance;
  return instance;
}

/// A unique, cleaned-up-on-entry scratch directory per test name.
std::string scratch_dir(const std::string& name) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("pk_engine_test_" + name);
  std::filesystem::remove_all(path);
  return path.string();
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  TaskGroup group(pool);
  for (int i = 0; i < 200; ++i)
    group.run([&total] { total.fetch_add(1); });
  group.wait();
  EXPECT_EQ(total.load(), 200);
}

TEST(ThreadPool, TaskGroupRethrowsLowestSubmissionIndex) {
  ThreadPool pool(4);
  for (int repeat = 0; repeat < 10; ++repeat) {
    TaskGroup group(pool);
    for (int i = 0; i < 8; ++i)
      group.run([i] {
        if (i >= 2) throw std::runtime_error(std::to_string(i));
      });
    try {
      group.wait();
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "2");
    }
  }
}

TEST(ThreadPool, WaitHelpsDrainNestedWork) {
  // Saturate a tiny pool with tasks that themselves fan out; wait() must
  // help execute instead of deadlocking on the busy workers.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  TaskGroup outer(pool);
  for (int i = 0; i < 8; ++i)
    outer.run([&pool, &total] {
      TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j)
        inner.run([&total] { total.fetch_add(1); });
      inner.wait();
    });
  outer.wait();
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, StressAccountingBalancesLocalPopsAndSteals) {
  // 64 jobs with deterministic pseudo-random sleeps on a 4-worker pool.
  // Every submitted task is popped exactly once — either by its owner
  // (local pop) or by a stealing/helping thread — so after the drain:
  // submitted == local_pops + steals == completed, and the queue-depth
  // gauge is back where it started. gtest runs tests serially in one
  // process, so deltas on the global counters are race-free.
  const obs::EnabledScope on(true);
  obs::Registry& registry = obs::Registry::global();
  const std::uint64_t submitted0 = registry.counter("pool.submitted").value();
  const std::uint64_t local0 = registry.counter("pool.local_pops").value();
  const std::uint64_t steals0 = registry.counter("pool.steals").value();
  const std::uint64_t completed0 = registry.counter("pool.completed").value();
  const std::int64_t depth0 = registry.gauge("pool.queue_depth").value();

  ThreadPool pool(4);
  std::mt19937 rng(20260806u);
  std::uniform_int_distribution<int> sleep_us(0, 400);
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  for (int i = 0; i < 64; ++i) {
    const int us = sleep_us(rng);
    group.run([us, &ran] {
      std::this_thread::sleep_for(std::chrono::microseconds(us));
      ran.fetch_add(1);
    });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 64);

  const std::uint64_t local = registry.counter("pool.local_pops").value() -
                              local0;
  const std::uint64_t steals = registry.counter("pool.steals").value() -
                               steals0;
  EXPECT_EQ(registry.counter("pool.submitted").value() - submitted0, 64u);
  EXPECT_EQ(registry.counter("pool.completed").value() - completed0, 64u);
  EXPECT_EQ(local + steals, 64u);
  EXPECT_EQ(registry.gauge("pool.queue_depth").value(), depth0);
}

TEST(Cache, AccountingInvariantHoldsUnderRandomOperations) {
  // Property test: a deterministic pseudo-random put/get/invalidate
  // workload against a memory-only cache, checked against a reference
  // model (two key sets) and run twice — metrics enabled and disabled.
  // Invariants: every lookup outcome matches the model, hits + misses ==
  // lookups, and the observable trace is byte-identical both ways.
  const auto run_workload = [](bool metrics_on) {
    const obs::EnabledScope scope(metrics_on);
    obs::Registry& registry = obs::Registry::global();
    const std::uint64_t hits0 = registry.counter("cache.feature_hits").value() +
                                registry.counter("cache.outcome_hits").value();
    const std::uint64_t misses0 =
        registry.counter("cache.feature_misses").value() +
        registry.counter("cache.outcome_misses").value();
    const std::uint64_t evictions0 =
        registry.counter("cache.evictions").value();

    ResultCache cache;  // memory-only
    std::set<std::string> model_features, model_outcomes;
    std::uint64_t lookups = 0, expected_evictions = 0;
    std::mt19937 rng(1234u);
    std::uniform_int_distribution<int> op_dist(0, 99);
    std::uniform_int_distribution<int> key_dist(0, 15);
    std::string log;
    for (int step = 0; step < 2000; ++step) {
      const int op = op_dist(rng);
      const std::string key = "k" + std::to_string(key_dist(rng));
      if (op < 35) {
        ++lookups;
        const bool hit = cache.find_features(key).has_value();
        EXPECT_EQ(hit, model_features.count(key) > 0) << "step " << step;
        log += hit ? 'F' : 'f';
      } else if (op < 70) {
        ++lookups;
        const bool hit = cache.find_outcome(key).has_value();
        EXPECT_EQ(hit, model_outcomes.count(key) > 0) << "step " << step;
        log += hit ? 'O' : 'o';
      } else if (op < 85) {
        cache.store_features(key, {StaticFeatureVector{}});
        model_features.insert(key);
        log += 's';
      } else if (op < 97) {
        DetectionOutcome outcome;
        outcome.cve_id = key;
        cache.store_outcome(key, outcome);
        model_outcomes.insert(key);
        log += 'S';
      } else {
        expected_evictions += model_features.size() + model_outcomes.size();
        cache.clear_memory();
        model_features.clear();
        model_outcomes.clear();
        log += 'x';
      }
    }
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits() + stats.misses(), lookups);
    // With metrics on, the global counters mirror the per-cache stats
    // exactly; with metrics off they must not move at all.
    const std::uint64_t hit_delta =
        registry.counter("cache.feature_hits").value() +
        registry.counter("cache.outcome_hits").value() - hits0;
    const std::uint64_t miss_delta =
        registry.counter("cache.feature_misses").value() +
        registry.counter("cache.outcome_misses").value() - misses0;
    const std::uint64_t evict_delta =
        registry.counter("cache.evictions").value() - evictions0;
    EXPECT_EQ(hit_delta, metrics_on ? stats.hits() : 0u);
    EXPECT_EQ(miss_delta, metrics_on ? stats.misses() : 0u);
    EXPECT_EQ(evict_delta, metrics_on ? expected_evictions : 0u);
    return log + "|" + std::to_string(stats.feature_hits) + "," +
           std::to_string(stats.feature_misses) + "," +
           std::to_string(stats.outcome_hits) + "," +
           std::to_string(stats.outcome_misses) + "," +
           std::to_string(stats.stores);
  };
  EXPECT_EQ(run_workload(true), run_workload(false));
}

TEST(Cache, FeatureSerializationRoundTripsByteIdentical) {
  const LibraryBinary library =
      universe().corpus->compile_for_device(0, android_things_device());
  const AnalyzedLibrary analyzed = analyze_library(library);
  ASSERT_FALSE(analyzed.features.empty());

  const std::vector<std::uint8_t> bytes =
      serialize_features(analyzed.features);
  const auto restored = deserialize_features(bytes);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), analyzed.features.size());
  for (std::size_t i = 0; i < restored->size(); ++i)
    for (std::size_t f = 0; f < static_feature_count; ++f)
      EXPECT_EQ((*restored)[i][f], analyzed.features[i][f]);
  EXPECT_EQ(serialize_features(*restored), bytes);
}

TEST(Cache, OutcomeSerializationRoundTripsByteIdentical) {
  DetectionOutcome outcome;
  outcome.cve_id = "CVE-2018-9412";
  outcome.query_is_patched = true;
  outcome.total = 321;
  outcome.true_positives = 1;
  outcome.true_negatives = 300;
  outcome.false_positives = 19;
  outcome.false_negatives = 1;
  outcome.candidates = {4, 9, 17, 200};
  outcome.dl_seconds = 0.125;
  outcome.executed = 3;
  outcome.ranking = {{17, 0.03125, 0.75}, {4, 1.5, 0.25}, {9, 2.25, 0.5}};
  outcome.rank_of_target = 1;
  outcome.da_seconds = 2.5;
  outcome.prefilter_mode = retrieval::PrefilterMode::verify;
  outcome.prefilter_exact_fallback = false;
  outcome.prefilter_shortlist = 32;
  outcome.prefilter_exact_candidates = 20;
  outcome.prefilter_recalled = 19;

  const std::vector<std::uint8_t> bytes = serialize_outcome(outcome);
  const auto restored = deserialize_outcome(bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->cve_id, outcome.cve_id);
  EXPECT_EQ(restored->query_is_patched, outcome.query_is_patched);
  EXPECT_EQ(restored->total, outcome.total);
  EXPECT_EQ(restored->true_positives, outcome.true_positives);
  EXPECT_EQ(restored->true_negatives, outcome.true_negatives);
  EXPECT_EQ(restored->false_positives, outcome.false_positives);
  EXPECT_EQ(restored->false_negatives, outcome.false_negatives);
  EXPECT_EQ(restored->candidates, outcome.candidates);
  EXPECT_EQ(restored->dl_seconds, outcome.dl_seconds);
  EXPECT_EQ(restored->executed, outcome.executed);
  ASSERT_EQ(restored->ranking.size(), outcome.ranking.size());
  for (std::size_t i = 0; i < outcome.ranking.size(); ++i) {
    EXPECT_EQ(restored->ranking[i].function_index,
              outcome.ranking[i].function_index);
    EXPECT_EQ(restored->ranking[i].distance, outcome.ranking[i].distance);
    EXPECT_EQ(restored->ranking[i].secondary, outcome.ranking[i].secondary);
  }
  EXPECT_EQ(restored->rank_of_target, outcome.rank_of_target);
  EXPECT_EQ(restored->da_seconds, outcome.da_seconds);
  EXPECT_EQ(restored->prefilter_mode, outcome.prefilter_mode);
  EXPECT_EQ(restored->prefilter_exact_fallback,
            outcome.prefilter_exact_fallback);
  EXPECT_EQ(restored->prefilter_shortlist, outcome.prefilter_shortlist);
  EXPECT_EQ(restored->prefilter_exact_candidates,
            outcome.prefilter_exact_candidates);
  EXPECT_EQ(restored->prefilter_recalled, outcome.prefilter_recalled);
  EXPECT_EQ(serialize_outcome(*restored), bytes);
}

TEST(Cache, ProvenanceRoundTripsBitExactIncludingNonFinite) {
  // Decision provenance rides inside the cached outcome; the doubles are
  // serialized as raw bits, so NaN env distances and +inf aggregates must
  // survive — a warm-cache scan has to re-render byte-identical JSONL.
  DetectionOutcome outcome;
  outcome.cve_id = "CVE-2018-9412";
  outcome.provenance.threshold = 0.4;
  outcome.provenance.minkowski_p = 3.0;
  outcome.provenance.total = 64;
  outcome.provenance.executed = 1;
  outcome.provenance.prefilter =
      static_cast<std::uint8_t>(retrieval::PrefilterMode::verify);
  outcome.provenance.prefilter_shortlist = 32;
  outcome.provenance.prefilter_exact = 3;
  outcome.provenance.prefilter_recalled = 2;
  obs::CandidateRecord kept;
  kept.function_index = 12;
  kept.dl_score = 0.875;
  kept.validated = true;
  kept.env_distances = {0.25, std::numeric_limits<double>::quiet_NaN(),
                        0.0078125};
  kept.distance = 0.4375;
  kept.rank = 1;
  obs::CandidateRecord pruned;
  pruned.function_index = 31;
  pruned.dl_score = 0.5;
  pruned.crash_env = 2;
  pruned.distance = std::numeric_limits<double>::infinity();
  obs::CandidateRecord shortlist_pruned;
  shortlist_pruned.function_index = 40;
  shortlist_pruned.dl_score = 0.625;
  shortlist_pruned.prefiltered = true;  // verify-mode "what `on` would drop"
  outcome.provenance.candidates = {kept, pruned, shortlist_pruned};

  const std::vector<std::uint8_t> bytes = serialize_outcome(outcome);
  const auto restored = deserialize_outcome(bytes);
  ASSERT_TRUE(restored.has_value());
  const obs::StageRecord& stage = restored->provenance;
  EXPECT_EQ(stage.threshold, 0.4);
  EXPECT_EQ(stage.total, 64u);
  EXPECT_EQ(stage.executed, 1u);
  EXPECT_EQ(stage.prefilter,
            static_cast<std::uint8_t>(retrieval::PrefilterMode::verify));
  EXPECT_EQ(stage.prefilter_shortlist, 32u);
  EXPECT_EQ(stage.prefilter_exact, 3u);
  EXPECT_EQ(stage.prefilter_recalled, 2u);
  ASSERT_EQ(stage.candidates.size(), 3u);
  EXPECT_EQ(stage.candidates[0].function_index, 12u);
  EXPECT_TRUE(stage.candidates[0].validated);
  ASSERT_EQ(stage.candidates[0].env_distances.size(), 3u);
  EXPECT_TRUE(std::isnan(stage.candidates[0].env_distances[1]));
  EXPECT_EQ(stage.candidates[0].env_distances[2], 0.0078125);
  EXPECT_EQ(stage.candidates[0].rank, 1);
  EXPECT_EQ(stage.candidates[1].crash_env, 2);
  EXPECT_TRUE(std::isinf(stage.candidates[1].distance));
  EXPECT_FALSE(stage.candidates[1].prefiltered);
  EXPECT_TRUE(stage.candidates[2].prefiltered);
  EXPECT_EQ(stage.candidates[2].dl_score, 0.625);
  EXPECT_EQ(serialize_outcome(*restored), bytes);
}

TEST(Cache, DeserializersRejectCorruptInput) {
  EXPECT_FALSE(deserialize_features({}).has_value());
  EXPECT_FALSE(deserialize_outcome({}).has_value());
  EXPECT_FALSE(deserialize_features({'P', 'K', 'F', 'E'}).has_value());

  std::vector<std::uint8_t> bytes =
      serialize_features({StaticFeatureVector{}, StaticFeatureVector{}});
  bytes.pop_back();  // truncated payload
  EXPECT_FALSE(deserialize_features(bytes).has_value());
  bytes.push_back(0);
  bytes[0] = 'X';  // wrong magic
  EXPECT_FALSE(deserialize_features(bytes).has_value());

  DetectionOutcome outcome;
  outcome.candidates = {1, 2, 3};
  std::vector<std::uint8_t> outcome_bytes = serialize_outcome(outcome);
  outcome_bytes.resize(outcome_bytes.size() - 4);
  EXPECT_FALSE(deserialize_outcome(outcome_bytes).has_value());
}

TEST(Cache, KeyChangesWithModelConfigAndLibrary) {
  const EngineUniverse& u = universe();
  const LibraryBinary library =
      u.corpus->compile_for_device(0, android_things_device());
  const CveEntry& entry = u.database->entries().front();

  const Digest lib_digest = digest_library(library);
  const Digest model_digest = digest_model(u.model);
  PipelineConfig config;
  const Digest config_digest = digest_pipeline_config(config);
  const Digest entry_digest = digest_entry(entry);
  const std::string key = outcome_cache_key(lib_digest, model_digest,
                                            config_digest, entry_digest,
                                            /*query_is_patched=*/false);

  // Model perturbation (one weight) must invalidate.
  SimilarityModel perturbed = u.model;
  ASSERT_FALSE(perturbed.network().layers().empty());
  perturbed.network().layers()[0].weights()[0] += 1.0f;
  EXPECT_NE(outcome_cache_key(lib_digest, digest_model(perturbed),
                              config_digest, entry_digest, false),
            key);

  // Result-relevant config change must invalidate...
  PipelineConfig tightened;
  tightened.detection_threshold = 0.9f;
  EXPECT_NE(outcome_cache_key(lib_digest, model_digest,
                              digest_pipeline_config(tightened), entry_digest,
                              false),
            key);

  // ...but parallelism is result-neutral and must NOT invalidate.
  PipelineConfig threaded;
  threaded.worker_threads = 8;
  EXPECT_EQ(outcome_cache_key(lib_digest, model_digest,
                              digest_pipeline_config(threaded), entry_digest,
                              false),
            key);

  // The prefilter shapes which functions reach the network, so mode, K, and
  // the exact-fallback threshold are all part of the outcome key.
  PipelineConfig prefiltered;
  prefiltered.prefilter_mode = retrieval::PrefilterMode::on;
  const std::string prefiltered_key =
      outcome_cache_key(lib_digest, model_digest,
                        digest_pipeline_config(prefiltered), entry_digest,
                        false);
  EXPECT_NE(prefiltered_key, key);
  PipelineConfig wider = prefiltered;
  wider.prefilter_top_k = prefiltered.prefilter_top_k * 2;
  EXPECT_NE(outcome_cache_key(lib_digest, model_digest,
                              digest_pipeline_config(wider), entry_digest,
                              false),
            prefiltered_key);
  PipelineConfig always = prefiltered;
  always.prefilter_min_total = 0;
  EXPECT_NE(outcome_cache_key(lib_digest, model_digest,
                              digest_pipeline_config(always), entry_digest,
                              false),
            prefiltered_key);

  // Different query direction and different library are distinct entries.
  EXPECT_NE(outcome_cache_key(lib_digest, model_digest, config_digest,
                              entry_digest, true),
            key);
  const LibraryBinary other =
      u.corpus->compile_for_device(1, android_things_device());
  EXPECT_NE(outcome_cache_key(digest_library(other), model_digest,
                              config_digest, entry_digest, false),
            key);
}

TEST(Cache, DiskEntriesSurviveProcessRestartSimulation) {
  const std::string dir = scratch_dir("disk_persist");
  const std::vector<StaticFeatureVector> features{StaticFeatureVector{},
                                                  StaticFeatureVector{}};
  {
    ResultCache cache(dir);
    cache.store_features("feat-abc", features);
  }
  ResultCache fresh(dir);  // same directory, empty memory
  const auto found = fresh.find_features("feat-abc");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->size(), features.size());
  EXPECT_EQ(fresh.stats().disk_loads, 1u);
  EXPECT_FALSE(fresh.find_features("feat-missing").has_value());
  EXPECT_EQ(fresh.stats().feature_misses, 1u);
}

TEST(Engine, RejectsIncompleteRequests) {
  ScanEngine engine;
  EXPECT_THROW(engine.run(ScanRequest{}), std::invalid_argument);
}

TEST(Engine, SchedulerRunsAnalyzeBeforeDetectBeforePatch) {
  const EngineUniverse& u = universe();
  EngineConfig config;
  config.jobs = 4;
  config.use_cache = false;
  ScanEngine engine(config);

  std::vector<JobEvent> events;  // engine serializes progress callbacks
  const ScanReport report = engine.run(u.request(), [&](const JobEvent& e) {
    events.push_back(e);
  });

  std::map<std::string, std::size_t> analyze_pos, detect_pos, patch_pos;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == JobKind::analyze) analyze_pos[events[i].label] = i;
    if (events[i].kind == JobKind::detect) detect_pos[events[i].label] = i;
    if (events[i].kind == JobKind::patch) patch_pos[events[i].label] = i;
  }
  EXPECT_EQ(events.size(),
            report.analyzed_libraries + 2 * report.results.size());
  for (const CveScanResult& result : report.results) {
    ASSERT_TRUE(analyze_pos.count(result.library)) << result.library;
    ASSERT_TRUE(detect_pos.count(result.cve_id)) << result.cve_id;
    ASSERT_TRUE(patch_pos.count(result.cve_id)) << result.cve_id;
    EXPECT_LT(analyze_pos[result.library], detect_pos[result.cve_id]);
    EXPECT_LT(detect_pos[result.cve_id], patch_pos[result.cve_id]);
  }
}

TEST(Engine, SequentialAndParallelRunsAgreeExactly) {
  const EngineUniverse& u = universe();
  EngineConfig sequential;
  sequential.jobs = 1;
  sequential.use_cache = false;
  EngineConfig parallel;
  parallel.jobs = 8;
  parallel.use_cache = false;

  const ScanReport a = ScanEngine(sequential).run(u.request());
  const ScanReport b = ScanEngine(parallel).run(u.request());
  ASSERT_FALSE(a.results.empty());
  EXPECT_FALSE(a.canonical_text().empty());
  EXPECT_EQ(a.canonical_text(), b.canonical_text());
}

TEST(Engine, WarmRunHitsCacheAndReproducesReport) {
  const EngineUniverse& u = universe();
  EngineConfig config;
  config.jobs = 4;  // memory-only cache
  ScanEngine engine(config);

  const ScanReport cold = engine.run(u.request());
  const ScanReport warm = engine.run(u.request());

  EXPECT_EQ(cold.canonical_text(), warm.canonical_text());
  // Cold run: every lookup missed and was stored.
  EXPECT_EQ(cold.cache.hits(), 0u);
  EXPECT_EQ(cold.cache.feature_misses, cold.analyzed_libraries);
  EXPECT_EQ(cold.cache.outcome_misses, 2 * cold.results.size());
  // Warm run: every analyze and detect served from cache.
  EXPECT_EQ(warm.cache.misses(), 0u);
  EXPECT_EQ(warm.cache.feature_hits, warm.analyzed_libraries);
  EXPECT_EQ(warm.cache.outcome_hits, 2 * warm.results.size());
  bool analyze_hit = false, detect_hit = false;
  for (const JobTiming& timing : warm.timings) {
    if (timing.kind == JobKind::analyze && timing.cache_hit)
      analyze_hit = true;
    if (timing.kind == JobKind::detect && timing.cache_hit) detect_hit = true;
  }
  EXPECT_TRUE(analyze_hit);
  EXPECT_TRUE(detect_hit);
}

TEST(Engine, DiskCacheServesAFreshEngine) {
  const EngineUniverse& u = universe();
  const std::string dir = scratch_dir("engine_disk");
  EngineConfig config;
  config.jobs = 4;
  config.cache_dir = dir;

  const ScanReport cold = ScanEngine(config).run(u.request());
  const ScanReport warm = ScanEngine(config).run(u.request());  // new engine

  EXPECT_EQ(cold.canonical_text(), warm.canonical_text());
  EXPECT_EQ(warm.cache.misses(), 0u);
  EXPECT_GT(warm.cache.disk_loads, 0u);
}

TEST(Engine, ModelChangeInvalidatesOutcomesButNotFeatures) {
  const EngineUniverse& u = universe();
  const std::string dir = scratch_dir("engine_invalidate");
  EngineConfig config;
  config.jobs = 2;
  config.cache_dir = dir;
  ScanEngine(config).run(u.request());

  SimilarityModel perturbed = u.model;
  perturbed.network().layers()[0].weights()[0] += 1.0f;
  ScanRequest request = u.request();
  request.model = &perturbed;
  const ScanReport report = ScanEngine(config).run(request);

  // Features depend only on the library: still hits. Outcomes depend on the
  // model: all misses.
  EXPECT_EQ(report.cache.feature_hits, report.analyzed_libraries);
  EXPECT_EQ(report.cache.outcome_hits, 0u);
  EXPECT_EQ(report.cache.outcome_misses, 2 * report.results.size());
}

TEST(Engine, ConfigChangeInvalidatesOutcomes) {
  const EngineUniverse& u = universe();
  const std::string dir = scratch_dir("engine_invalidate_config");
  EngineConfig config;
  config.jobs = 2;
  config.cache_dir = dir;
  ScanEngine(config).run(u.request());

  EngineConfig tightened = config;
  tightened.pipeline.detection_threshold = 0.75f;
  const ScanReport report = ScanEngine(tightened).run(u.request());
  EXPECT_EQ(report.cache.feature_hits, report.analyzed_libraries);
  EXPECT_EQ(report.cache.outcome_hits, 0u);
}

TEST(Engine, MetricsCountJobsAndNestPipelineSpansUnderJobs) {
  const EngineUniverse& u = universe();
  EngineConfig config;
  config.jobs = 4;
  config.use_cache = false;

  const obs::EnabledScope on(true);
  obs::Registry& registry = obs::Registry::global();
  obs::Tracer::global().clear();
  const std::uint64_t jobs0 =
      registry.counter("engine.jobs_completed").value();
  const std::uint64_t detect0 =
      registry.histogram("engine.job_seconds.detect").count();

  const ScanReport report = ScanEngine(config).run(u.request());
  ASSERT_FALSE(report.results.empty());

  // One engine.jobs_completed per scheduled job; one detect-latency sample
  // per (cve, direction-pair) detect job.
  EXPECT_EQ(registry.counter("engine.jobs_completed").value() - jobs0,
            report.timings.size());
  EXPECT_EQ(registry.histogram("engine.job_seconds.detect").count() - detect0,
            report.results.size());

  // Pipeline stage spans nest under the engine job spans that ran them; a
  // detect job runs the pipeline once per query direction.
  const std::vector<obs::Span> spans = obs::Tracer::global().spans();
  std::map<std::uint64_t, std::string> name_of;
  for (const obs::Span& span : spans) name_of[span.id] = span.name;
  std::size_t dl_spans = 0;
  for (const obs::Span& span : spans) {
    if (span.name != "pipeline.detect.dl") continue;
    ++dl_spans;
    ASSERT_NE(span.parent, 0u);
    EXPECT_EQ(name_of[span.parent], "job.detect");
  }
  EXPECT_EQ(dl_spans, 2 * report.results.size());
}

TEST(Engine, CanonicalReportIsUnaffectedByMetrics) {
  // The determinism oracle: metrics on/off and jobs 1/8 must all yield the
  // byte-identical canonical report.
  const EngineUniverse& u = universe();
  EngineConfig sequential;
  sequential.jobs = 1;
  sequential.use_cache = false;
  EngineConfig parallel;
  parallel.jobs = 8;
  parallel.use_cache = false;

  std::string off_text;
  {
    const obs::EnabledScope off(false);
    off_text = ScanEngine(parallel).run(u.request()).canonical_text();
  }
  const obs::EnabledScope on(true);
  const std::string seq_text =
      ScanEngine(sequential).run(u.request()).canonical_text();
  const std::string par_text =
      ScanEngine(parallel).run(u.request()).canonical_text();
  ASSERT_FALSE(off_text.empty());
  EXPECT_EQ(seq_text, off_text);
  EXPECT_EQ(par_text, off_text);
}

TEST(Engine, ProvenanceIsDeterministicAcrossJobCounts) {
  // Decision lines carry no wall-clock or thread fields, so the provenance
  // export must stay byte-identical between jobs=1 and jobs=8 even with the
  // event log recording — and enabling events must not perturb the
  // canonical report either.
  const EngineUniverse& u = universe();
  EngineConfig sequential;
  sequential.jobs = 1;
  sequential.use_cache = false;
  EngineConfig parallel;
  parallel.jobs = 8;
  parallel.use_cache = false;

  std::string off_text;
  {
    const obs::EventsEnabledScope off(false);
    off_text = ScanEngine(parallel).run(u.request()).canonical_text();
  }
  const obs::EventsEnabledScope on(true);
  const ScanReport seq = ScanEngine(sequential).run(u.request());
  const ScanReport par = ScanEngine(parallel).run(u.request());
  ASSERT_FALSE(seq.results.empty());
  EXPECT_EQ(seq.canonical_text(), off_text);
  EXPECT_EQ(par.canonical_text(), off_text);

  const std::string seq_prov = seq.provenance_jsonl();
  EXPECT_FALSE(seq_prov.empty());
  EXPECT_EQ(par.provenance_jsonl(), seq_prov);
  // Every line is one JSON object; decisions cover every scanned CVE pair.
  std::size_t decisions = 0, start = 0;
  while (start < seq_prov.size()) {
    const std::size_t end = seq_prov.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = seq_prov.substr(start, end - start);
    if (obs::parse_decision_line(line).has_value()) ++decisions;
    start = end + 1;
  }
  EXPECT_EQ(decisions, seq.results.size());
}

TEST(Engine, ProvenanceSurvivesCacheRoundTrip) {
  // A warm run replays outcomes from the cache; the embedded StageRecords
  // must reproduce the cold run's provenance byte-for-byte (raw-bit double
  // serialization — no decimal round-trip drift).
  const EngineUniverse& u = universe();
  EngineConfig config;
  config.jobs = 4;  // memory-only cache
  ScanEngine engine(config);
  const std::string cold = engine.run(u.request()).provenance_jsonl();
  const ScanReport warm_report = engine.run(u.request());
  EXPECT_EQ(warm_report.cache.misses(), 0u);  // really served from cache
  EXPECT_EQ(warm_report.provenance_jsonl(), cold);
}

TEST(Engine, InterruptAlreadySetSkipsEveryJob) {
  // A SIGINT that lands before the first job launches must still produce a
  // (fully partial) report: every job cancelled, nothing executed.
  const EngineUniverse& u = universe();
  std::atomic<bool> interrupt{true};
  EngineConfig config;
  config.jobs = 4;
  config.interrupt = &interrupt;
  ScanEngine engine(config);
  const ScanReport report = engine.run(u.request());
  EXPECT_TRUE(report.interrupted);
  EXPECT_GT(report.jobs_cancelled, 0u);
  EXPECT_TRUE(report.timings.empty());  // nothing ran
  for (const CveScanResult& result : report.results)
    EXPECT_TRUE(result.cancelled);
  // Cancelled outcomes must never poison the cache.
  EXPECT_EQ(engine.cache().stats().stores, 0u);
}

TEST(Engine, InterruptMidRunYieldsPartialReport) {
  // Flip the flag from a progress callback after the first few completions:
  // queued jobs are dropped, the flag is recorded, and the jobs that did
  // finish keep their results.
  const EngineUniverse& u = universe();
  std::atomic<bool> interrupt{false};
  EngineConfig config;
  config.jobs = 1;  // sequential: the interrupt point is deterministic
  config.interrupt = &interrupt;
  ScanEngine engine(config);
  std::atomic<std::size_t> completions{0};
  const ScanReport report =
      engine.run(u.request(), [&](const JobEvent&) {
        if (completions.fetch_add(1) + 1 == 2) interrupt.store(true);
      });
  EXPECT_TRUE(report.interrupted);
  EXPECT_GT(report.jobs_cancelled, 0u);
  EXPECT_EQ(report.timings.size(), 2u);  // exactly the pre-interrupt jobs
}

TEST(Engine, InterruptedRunDoesNotDisturbLaterRuns) {
  const EngineUniverse& u = universe();
  std::atomic<bool> interrupt{true};
  EngineConfig config;
  config.jobs = 2;
  config.interrupt = &interrupt;
  ScanEngine engine(config);
  EXPECT_TRUE(engine.run(u.request()).interrupted);
  interrupt.store(false);
  const ScanReport clean = engine.run(u.request());
  EXPECT_FALSE(clean.interrupted);
  EXPECT_EQ(clean.jobs_cancelled, 0u);
  ScanEngine reference(EngineConfig{});
  EXPECT_EQ(clean.canonical_text(),
            reference.run(u.request()).canonical_text());
}

EngineConfig prefilter_config(retrieval::PrefilterMode mode,
                              std::size_t top_k = 32) {
  EngineConfig config;
  config.jobs = 4;
  config.use_cache = false;
  config.pipeline.prefilter_mode = mode;
  config.pipeline.prefilter_top_k = top_k;
  // The shared test corpus is small; drop the exact-fallback floor so the
  // shortlist path genuinely engages.
  config.pipeline.prefilter_min_total = 0;
  return config;
}

TEST(Engine, PrefilterVerifyMatchesOnExactlyAndReportsFullRecall) {
  // `verify` scores everything but classifies through the shortlist like
  // `on`, so the two modes must agree byte-for-byte — report and provenance.
  // On this corpus the default K recalls every exact candidate, which is the
  // precondition for the off-equivalence check below.
  const EngineUniverse& u = universe();
  const ScanReport off =
      ScanEngine(prefilter_config(retrieval::PrefilterMode::off))
          .run(u.request());
  const ScanReport on =
      ScanEngine(prefilter_config(retrieval::PrefilterMode::on))
          .run(u.request());
  const ScanReport verify =
      ScanEngine(prefilter_config(retrieval::PrefilterMode::verify))
          .run(u.request());
  ASSERT_FALSE(verify.results.empty());
  EXPECT_EQ(verify.canonical_text(), on.canonical_text());
  // Provenance is intentionally NOT identical: verify annotates recall stats
  // and keeps records for accepted-but-shortlist-pruned functions, which the
  // shortlist-only scan never observes.
  EXPECT_NE(verify.provenance_jsonl().find("\"prefilter\":2"),
            std::string::npos);
  EXPECT_NE(on.provenance_jsonl().find("\"prefilter\":1"), std::string::npos);

  std::size_t shortlisted = 0, total = 0, exact = 0, recalled = 0;
  for (const CveScanResult& result : verify.results) {
    for (const DetectionOutcome* outcome :
         {&result.from_vulnerable, &result.from_patched}) {
      EXPECT_EQ(outcome->prefilter_mode, retrieval::PrefilterMode::verify);
      EXPECT_FALSE(outcome->prefilter_exact_fallback);
      EXPECT_LE(outcome->prefilter_recalled,
                outcome->prefilter_exact_candidates);
      shortlisted += outcome->prefilter_shortlist;
      total += outcome->total;
      exact += outcome->prefilter_exact_candidates;
      recalled += outcome->prefilter_recalled;
    }
  }
  EXPECT_GT(shortlisted, 0u);
  EXPECT_LT(shortlisted, total) << "shortlist never pruned anything";
  // 100% measured recall => prefiltered results must be byte-identical to
  // the exact scan. (If this corpus ever makes recall dip, the defaults are
  // mistuned — that is a real regression, not a flaky test.)
  ASSERT_EQ(recalled, exact);
  EXPECT_EQ(on.canonical_text(), off.canonical_text());
}

TEST(Engine, PrefilterFallsBackToExactBelowMinTotal) {
  // Tiny targets are cheaper to scan exactly than to index; the outcome
  // records the applied mode (off) plus the fallback marker.
  const EngineUniverse& u = universe();
  EngineConfig config = prefilter_config(retrieval::PrefilterMode::on);
  config.pipeline.prefilter_min_total = 1u << 20;
  const ScanReport report = ScanEngine(config).run(u.request());
  ASSERT_FALSE(report.results.empty());
  for (const CveScanResult& result : report.results) {
    for (const DetectionOutcome* outcome :
         {&result.from_vulnerable, &result.from_patched}) {
      EXPECT_EQ(outcome->prefilter_mode, retrieval::PrefilterMode::off);
      EXPECT_TRUE(outcome->prefilter_exact_fallback);
      EXPECT_EQ(outcome->prefilter_shortlist, 0u);
    }
  }
  const ScanReport off =
      ScanEngine(prefilter_config(retrieval::PrefilterMode::off))
          .run(u.request());
  EXPECT_EQ(report.canonical_text(), off.canonical_text());
}

TEST(Engine, PrefilterConfigChangeInvalidatesOutcomesButNotFeatures) {
  // Turning the prefilter on (or resizing K) changes which functions the
  // network scores, so cached outcomes keyed to the old config must miss.
  const EngineUniverse& u = universe();
  const std::string dir = scratch_dir("engine_invalidate_prefilter");
  EngineConfig config;
  config.jobs = 2;
  config.cache_dir = dir;
  ScanEngine(config).run(u.request());

  EngineConfig prefiltered = config;
  prefiltered.pipeline.prefilter_mode = retrieval::PrefilterMode::on;
  prefiltered.pipeline.prefilter_min_total = 0;
  const ScanReport report = ScanEngine(prefiltered).run(u.request());
  EXPECT_EQ(report.cache.feature_hits, report.analyzed_libraries);
  EXPECT_EQ(report.cache.outcome_hits, 0u);
  EXPECT_EQ(report.cache.outcome_misses, 2 * report.results.size());

  EngineConfig wider = prefiltered;
  wider.pipeline.prefilter_top_k = prefiltered.pipeline.prefilter_top_k * 2;
  const ScanReport rewidened = ScanEngine(wider).run(u.request());
  EXPECT_EQ(rewidened.cache.outcome_hits, 0u);
}

TEST(Engine, PrefilteredOutcomesSurviveWarmCacheByteIdentical) {
  // Warm runs replay prefiltered outcomes (shortlist stats, verify recall,
  // prefiltered provenance candidates) from the cache byte-for-byte.
  const EngineUniverse& u = universe();
  EngineConfig config;
  config.jobs = 4;  // memory-only cache
  config.pipeline.prefilter_mode = retrieval::PrefilterMode::verify;
  config.pipeline.prefilter_min_total = 0;
  ScanEngine engine(config);
  const ScanReport cold = engine.run(u.request());
  const ScanReport warm = engine.run(u.request());
  EXPECT_EQ(warm.cache.misses(), 0u);
  EXPECT_EQ(warm.canonical_text(), cold.canonical_text());
  EXPECT_EQ(warm.provenance_jsonl(), cold.provenance_jsonl());
  for (std::size_t i = 0; i < warm.results.size(); ++i) {
    EXPECT_EQ(warm.results[i].from_vulnerable.prefilter_recalled,
              cold.results[i].from_vulnerable.prefilter_recalled);
    EXPECT_EQ(warm.results[i].from_vulnerable.prefilter_exact_candidates,
              cold.results[i].from_vulnerable.prefilter_exact_candidates);
  }
}

TEST(Engine, ConcurrentRunsOnOneEngineStayDeterministic) {
  // The scan service dispatches many requests through one resident engine;
  // concurrent run() calls share the result cache and the global pool but
  // must not share per-run state.
  const EngineUniverse& u = universe();
  EngineConfig config;
  config.jobs = 2;
  ScanEngine engine(config);
  const std::string expected =
      ScanEngine(EngineConfig{}).run(u.request()).canonical_text();
  constexpr int kRuns = 4;
  std::vector<std::string> reports(kRuns);
  std::vector<std::thread> threads;
  for (int i = 0; i < kRuns; ++i)
    threads.emplace_back(
        [&, i] { reports[i] = engine.run(u.request()).canonical_text(); });
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kRuns; ++i) EXPECT_EQ(reports[i], expected) << i;
}

// --- stage-1 fan-out ---------------------------------------------------------

/// The universe's CVEs whose host library spans several stage-1 scoring
/// blocks, the largest such library, and the first CVE it hosts (always
/// among `cve_ids`).
struct MultiBlockTargets {
  std::vector<std::string> cve_ids;
  const LibraryBinary* largest = nullptr;
  const CveEntry* largest_entry = nullptr;
};

MultiBlockTargets multi_block_targets(const EngineUniverse& u) {
  MultiBlockTargets targets;
  std::map<std::string, const LibraryBinary*> by_name;
  for (const LibraryBinary& library : u.firmware.libraries) {
    if (library.functions.size() <= SimilarityModel::score_block) continue;
    by_name[library.name] = &library;
    if (targets.largest == nullptr ||
        library.functions.size() > targets.largest->functions.size())
      targets.largest = &library;
  }
  for (const CveEntry& entry : u.database->entries()) {
    if (targets.largest != nullptr && targets.largest_entry == nullptr &&
        entry.spec.library == targets.largest->name) {
      targets.largest_entry = &entry;
      targets.cve_ids.push_back(entry.spec.cve_id);
    } else if (by_name.count(entry.spec.library) &&
               targets.cve_ids.size() < 5) {
      targets.cve_ids.push_back(entry.spec.cve_id);
    }
  }
  return targets;
}

TEST(Engine, ExactScanIsByteIdenticalAcrossJobsOnMultiBlockTargets) {
  // Stage 1 fans 64-pair blocks out over the scan pool; the classification
  // pass after it must make the report independent of the worker count.
  const EngineUniverse& u = universe();
  const MultiBlockTargets targets = multi_block_targets(u);
  ASSERT_FALSE(targets.cve_ids.empty());
  ScanRequest request = u.request();
  request.cve_ids = targets.cve_ids;

  std::string reference;
  for (const unsigned jobs : {1u, 2u, 4u}) {
    EngineConfig config;
    config.jobs = jobs;
    config.use_cache = false;
    const ScanReport report = ScanEngine(config).run(request);
    ASSERT_EQ(report.results.size(), targets.cve_ids.size());
    for (const CveScanResult& result : report.results)
      EXPECT_GT(result.from_vulnerable.total, SimilarityModel::score_block);
    if (reference.empty())
      reference = report.canonical_text();
    else
      EXPECT_EQ(report.canonical_text(), reference) << "jobs=" << jobs;
  }
  EXPECT_FALSE(reference.empty());
}

TEST(Engine, FusedStageTwoMatchesSeparateValidationAndProfiling) {
  // validate_and_profile runs each environment once. On every function of a
  // target library, under every CVE's environments, it must agree with
  // validate_candidate followed by profile_function, crash index included,
  // and count the same validations and prunes.
  const obs::EnabledScope on(true);
  const EngineUniverse& u = universe();
  const MultiBlockTargets targets = multi_block_targets(u);
  ASSERT_NE(targets.largest_entry, nullptr);
  const Machine machine(*targets.largest);
  obs::Counter& validated =
      obs::Registry::global().counter("fuzz.candidates_validated");
  obs::Counter& pruned =
      obs::Registry::global().counter("fuzz.candidates_crash_pruned");
  std::size_t crashed = 0;
  for (const CveEntry& entry : u.database->entries()) {
    for (std::size_t f = 0; f < targets.largest->functions.size(); ++f) {
      const std::uint64_t validated0 = validated.value();
      const std::uint64_t pruned0 = pruned.value();
      std::size_t separate_crash = 0;
      const bool valid =
          validate_candidate(machine, f, entry.environments, &separate_crash);
      const std::uint64_t validated1 = validated.value();
      const std::uint64_t pruned1 = pruned.value();
      std::size_t fused_crash = 0;
      const std::optional<DynamicProfile> fused =
          validate_and_profile(machine, f, entry.environments, &fused_crash);
      EXPECT_EQ(validated.value() - validated1, validated1 - validated0);
      EXPECT_EQ(pruned.value() - pruned1, pruned1 - pruned0);
      ASSERT_EQ(fused.has_value(), valid) << "function " << f;
      if (!valid) {
        ++crashed;
        EXPECT_EQ(fused_crash, separate_crash) << "function " << f;
        continue;
      }
      const DynamicProfile separate =
          profile_function(machine, f, entry.environments);
      ASSERT_EQ(fused->per_env.size(), separate.per_env.size());
      for (std::size_t e = 0; e < separate.per_env.size(); ++e) {
        ASSERT_TRUE(fused->per_env[e].has_value());
        ASSERT_TRUE(separate.per_env[e].has_value());
        EXPECT_EQ(fused->per_env[e]->to_array(),
                  separate.per_env[e]->to_array());
        EXPECT_EQ(fused->effect_hash[e], separate.effect_hash[e]);
      }
    }
  }
  EXPECT_GT(crashed, 0u);  // crash pruning was exercised

  // Patchecko::detect's provenance records the same prune decisions.
  const CveEntry& entry = *targets.largest_entry;
  const AnalyzedLibrary analyzed = analyze_library(*targets.largest);
  const DetectionOutcome outcome =
      Patchecko(&u.model).detect(entry, analyzed, /*query_is_patched=*/false);
  ASSERT_FALSE(outcome.provenance.candidates.empty());
  for (const obs::CandidateRecord& record : outcome.provenance.candidates) {
    std::size_t crash_env = 0;
    const bool valid = validate_candidate(machine, record.function_index,
                                          entry.environments, &crash_env);
    EXPECT_EQ(record.validated, valid);
    EXPECT_EQ(record.crash_env,
              valid ? -1 : static_cast<std::int64_t>(crash_env));
  }
}

TEST(Engine, CancelBeforeStageOneYieldsCancelledOutcomeAndStoresNothing) {
  const EngineUniverse& u = universe();
  const MultiBlockTargets targets = multi_block_targets(u);
  const CveEntry* entry = targets.largest_entry;
  ASSERT_NE(entry, nullptr);

  // Pipeline level: a flag already set means no block is scored and no
  // target function is classified.
  PipelineConfig pipeline;
  pipeline.worker_threads = 4;
  const Patchecko patchecko(&u.model, pipeline);
  const AnalyzedLibrary analyzed = analyze_library(*targets.largest);
  const std::atomic<bool> cancel{true};
  const DetectionOutcome outcome =
      patchecko.detect(*entry, analyzed, false, &cancel);
  EXPECT_TRUE(outcome.cancelled);
  EXPECT_TRUE(outcome.candidates.empty());
  EXPECT_EQ(outcome.true_positives + outcome.true_negatives +
                outcome.false_positives + outcome.false_negatives,
            0);

  // Engine level: the watchdog cancels one detect job while it is held
  // before stage 1; neither of its outcomes reaches the result cache.
  EngineConfig config;
  config.jobs = 2;
  config.stall_inject_label = entry->spec.cve_id;
  config.stall_inject_seconds = 0.75;
  config.watchdog.hard_deadline_seconds = 0.25;
  config.watchdog.poll_interval_seconds = 0.01;
  config.watchdog.warn_stderr = false;
  ScanEngine engine(config);
  ScanRequest request = u.request();
  request.cve_ids = targets.cve_ids;
  const ScanReport report = engine.run(request);
  // One feature store per library plus one per outcome that was not
  // cancelled (a loaded runner may push another job past the deadline).
  std::size_t expected_stores = report.analyzed_libraries;
  for (const CveScanResult& result : report.results) {
    expected_stores += !result.from_vulnerable.cancelled;
    expected_stores += !result.from_patched.cancelled;
    if (result.cve_id != entry->spec.cve_id) continue;
    EXPECT_TRUE(result.stalled);
    EXPECT_TRUE(result.from_vulnerable.cancelled);
    EXPECT_TRUE(result.from_patched.cancelled);
  }
  EXPECT_LT(expected_stores,
            report.analyzed_libraries + 2 * report.results.size());
  EXPECT_EQ(engine.cache().stats().stores, expected_stores);
}

TEST(Engine, CancelDuringStageOneYieldsCancelledOutcomeAndStoresNothing) {
  // A deliberately wide (untrained) model makes stage 1 on the largest
  // library take several times the watchdog's hard deadline, so the
  // deadline fires while the first query direction is still scoring.
  const EngineUniverse& u = universe();
  const MultiBlockTargets targets = multi_block_targets(u);
  const CveEntry* entry = targets.largest_entry;
  ASSERT_NE(entry, nullptr);
  const SimilarityModel wide(Network({96, 1024, 1024, 1024, 1}, 3),
                             u.model.normalizer());

  EngineConfig config;
  config.jobs = 2;
  config.watchdog.hard_deadline_seconds = 0.05;
  config.watchdog.poll_interval_seconds = 0.005;
  config.watchdog.warn_stderr = false;
  ScanEngine engine(config);
  ScanRequest request = u.request();
  request.model = &wide;
  request.cve_ids = {entry->spec.cve_id};
  const ScanReport report = engine.run(request);
  ASSERT_EQ(report.results.size(), 1u);
  const CveScanResult& result = report.results.front();
  EXPECT_TRUE(result.stalled);
  for (const DetectionOutcome* outcome :
       {&result.from_vulnerable, &result.from_patched}) {
    EXPECT_TRUE(outcome->cancelled);
    EXPECT_TRUE(outcome->candidates.empty());
    EXPECT_EQ(outcome->true_positives + outcome->true_negatives +
                  outcome->false_positives + outcome->false_negatives,
              0);
  }
  // Only the library's features were stored.
  EXPECT_EQ(engine.cache().stats().stores, report.analyzed_libraries);
}

}  // namespace
}  // namespace patchecko
