// Layer replay: one scan's work, re-done through each layer's public
// functions with a span around every call, for the traced run.
//
// The replay follows ScanEngine::run's job graph (analyze per library ->
// detect per CVE -> patch per CVE), phase by phase on the same worker
// count, and reproduces Patchecko::detect from its parts: retrieval top-K,
// SimilarityModel::score, validate_candidate, profile_function,
// rank_by_similarity. Every result cache lookup and store goes through a
// real ResultCache, so a warm cache makes the replay a warm request.
//
// The replay proves it measured the engine's work: its report must render
// the same canonical_text() as the engine's, and every detect outcome it
// computes must serialize to the same bytes (stage timings aside) as the
// outcome the reference engine cached under the same key.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "engine/cache.h"
#include "engine/engine.h"

namespace perfbench {

/// Exact work counts of a replay; they repeat exactly for one seed.
struct ReplayCounters {
  std::uint64_t scans = 0;
  std::uint64_t functions = 0;          ///< features extracted (cache misses)
  std::uint64_t pairs_scored = 0;       ///< SimilarityModel::score calls
  std::uint64_t top_k_queries = 0;
  std::uint64_t shortlisted = 0;        ///< functions the shortlists kept
  std::uint64_t stage1_candidates = 0;  ///< DL-accepted candidates
  std::uint64_t validated = 0;          ///< candidates surviving validation
  std::uint64_t vm_runs = 0;            ///< profiled environment runs
  std::uint64_t vm_steps = 0;           ///< instructions those runs executed
  std::uint64_t cache_finds = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_stores = 0;

  void add(const ReplayCounters& other);
};

struct ReplayTarget {
  const patchecko::SimilarityModel* model = nullptr;
  const patchecko::CveDatabase* database = nullptr;
  patchecko::PipelineConfig pipeline;
  unsigned jobs = 1;
  patchecko::ResultCache* cache = nullptr;
  /// Cache of the engine that computed the references; every outcome the
  /// replay computes must equal the one cached there.
  patchecko::ResultCache* reference = nullptr;
};

/// Replays one scan of the image file at `path` (every CVE when `cve_ids`
/// is empty). Throws std::runtime_error when the replay's work diverges
/// from the engine's.
patchecko::ScanReport replay_scan(const ReplayTarget& target,
                                  const std::string& path,
                                  const std::vector<std::string>& cve_ids,
                                  std::uint64_t request_id,
                                  ReplayCounters& counters);

}  // namespace perfbench
