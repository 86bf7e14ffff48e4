#include "similarity/similarity.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "util/stats.h"

namespace patchecko {

std::size_t DynamicProfile::successful_runs() const {
  std::size_t n = 0;
  for (const auto& entry : per_env)
    if (entry.has_value()) ++n;
  return n;
}

namespace {

std::uint64_t fnv1a(std::uint64_t hash, const std::uint8_t* data,
                    std::size_t size) {
  for (std::size_t i = 0; i < size; ++i)
    hash = (hash ^ data[i]) * 1099511628211ULL;
  return hash;
}

std::uint64_t effect_of(const RunResult& result) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto ret = static_cast<std::uint64_t>(result.ret);
  std::uint8_t ret_bytes[8];
  for (int b = 0; b < 8; ++b)
    ret_bytes[b] = static_cast<std::uint8_t>((ret >> (8 * b)) & 0xff);
  hash = fnv1a(hash, ret_bytes, sizeof(ret_bytes));
  for (const auto& buffer : result.buffers_after)
    hash = fnv1a(hash, buffer.data(), buffer.size());
  return hash;
}

void record(DynamicProfile& profile, const RunResult& result) {
  if (result.status == ExecStatus::ok) {
    profile.per_env.push_back(result.features);
    profile.effect_hash.push_back(effect_of(result));
  } else {
    profile.per_env.push_back(std::nullopt);
    profile.effect_hash.push_back(std::nullopt);
  }
}

}  // namespace

DynamicProfile profile_function(const Machine& machine,
                                std::size_t function_index,
                                const std::vector<CallEnv>& environments) {
  DynamicProfile profile;
  profile.per_env.reserve(environments.size());
  profile.effect_hash.reserve(environments.size());
  for (const CallEnv& env : environments)
    record(profile, machine.run(function_index, env));
  return profile;
}

std::optional<DynamicProfile> validate_and_profile(
    const Machine& machine, std::size_t function_index,
    const std::vector<CallEnv>& environments, std::size_t* first_crash_env) {
  // The counters validate_candidate (fuzz/fuzzer.cpp) bumps; the registry
  // hands out one counter per name.
  static obs::Counter& validated =
      obs::Registry::global().counter("fuzz.candidates_validated");
  static obs::Counter& crash_pruned =
      obs::Registry::global().counter("fuzz.candidates_crash_pruned");
  validated.add();
  DynamicProfile profile;
  profile.per_env.reserve(environments.size());
  profile.effect_hash.reserve(environments.size());
  for (std::size_t i = 0; i < environments.size(); ++i) {
    const RunResult result = machine.run(function_index, environments[i]);
    if (result.status != ExecStatus::ok) {
      crash_pruned.add();
      if (first_crash_env != nullptr) *first_crash_env = i;
      return std::nullopt;
    }
    record(profile, result);
  }
  return profile;
}

std::size_t effect_matches(const DynamicProfile& a, const DynamicProfile& b) {
  const std::size_t k = std::min(a.effect_hash.size(), b.effect_hash.size());
  std::size_t matches = 0;
  for (std::size_t i = 0; i < k; ++i)
    if (a.effect_hash[i].has_value() && b.effect_hash[i].has_value() &&
        *a.effect_hash[i] == *b.effect_hash[i])
      ++matches;
  return matches;
}

double profile_distance(const DynamicProfile& a, const DynamicProfile& b,
                        double p) {
  const std::size_t k = std::min(a.per_env.size(), b.per_env.size());
  double total = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (!a.per_env[i].has_value() || !b.per_env[i].has_value()) continue;
    const auto va = a.per_env[i]->to_array();
    const auto vb = b.per_env[i]->to_array();
    total += minkowski_distance(va, vb, p);
    ++used;
  }
  if (used == 0) return std::numeric_limits<double>::infinity();
  return total / static_cast<double>(used);
}

std::vector<double> per_env_distances(const DynamicProfile& a,
                                      const DynamicProfile& b, double p) {
  const std::size_t k = std::min(a.per_env.size(), b.per_env.size());
  std::vector<double> distances(k,
                                std::numeric_limits<double>::quiet_NaN());
  for (std::size_t i = 0; i < k; ++i) {
    if (!a.per_env[i].has_value() || !b.per_env[i].has_value()) continue;
    distances[i] = minkowski_distance(a.per_env[i]->to_array(),
                                      b.per_env[i]->to_array(), p);
  }
  return distances;
}

std::vector<RankedCandidate> rank_by_similarity(
    const DynamicProfile& reference,
    const std::vector<CandidateProfile>& candidates, double p) {
  struct Keyed {
    RankedCandidate ranked;
    std::size_t effects = 0;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(candidates.size());
  for (const CandidateProfile& candidate : candidates) {
    Keyed k;
    k.ranked = {candidate.function_index,
                profile_distance(reference, candidate.profile, p),
                candidate.secondary};
    k.effects = effect_matches(reference, candidate.profile);
    keyed.push_back(std::move(k));
  }
  // Primary: trace distance (Eq. 1-2). Exact ties — count-identical
  // lookalikes — break first on memory-effect agreement, then on the
  // Stage-1 score.
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& x, const Keyed& y) {
                     if (x.ranked.distance != y.ranked.distance)
                       return x.ranked.distance < y.ranked.distance;
                     if (x.effects != y.effects) return x.effects > y.effects;
                     return x.ranked.secondary > y.ranked.secondary;
                   });
  std::vector<RankedCandidate> ranking;
  ranking.reserve(keyed.size());
  for (Keyed& k : keyed) ranking.push_back(k.ranked);
  return ranking;
}

}  // namespace patchecko
