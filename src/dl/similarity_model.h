// The trained similarity classifier bundled with its feature normalizer.
//
// score(a, b) is the probability that two binary functions come from the
// same source code (the paper's Stage-1 detector). The normalizer fitted on
// the training corpus travels with the network so inference applies the
// identical transform.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "dl/network.h"
#include "features/static_features.h"

namespace patchecko {

class SimilarityModel {
 public:
  SimilarityModel() = default;
  SimilarityModel(Network network, FeatureNormalizer normalizer)
      : network_(std::move(network)), normalizer_(std::move(normalizer)) {}

  /// Pairs per work unit of score_many: the unit of fan-out and of
  /// cancellation polling.
  static constexpr std::size_t score_block = 64;

  /// Probability in [0,1] that `a` and `b` are same-source. Raw (untrans-
  /// formed) feature vectors in. A batch of one through score_many.
  float score(const StaticFeatureVector& a,
              const StaticFeatureVector& b) const;

  /// out[k] = score(query, targets[indices ? indices[k] : k]) for k in
  /// [0, n), bit for bit, without heap allocation per pair. Blocks of
  /// score_block pairs fan out over `threads` workers; `cancel`, when given,
  /// is polled before each block. Returns false if it fired; entries of
  /// `out` whose block was skipped are then unspecified.
  bool score_many(const StaticFeatureVector& query,
                  const StaticFeatureVector* targets,
                  const std::uint32_t* indices, std::size_t n, float* out,
                  unsigned threads = 1,
                  const std::atomic<bool>* cancel = nullptr) const;

  const Network& network() const { return network_; }
  Network& network() { return network_; }
  const FeatureNormalizer& normalizer() const { return normalizer_; }

  /// Binary serialization (weights + normalizer). Returns false on I/O error.
  bool save(const std::string& path) const;
  /// Loads a saved model, verifying its shape (96 in, 1 out, a consistent
  /// dimension chain no wider than max_layer_width), finite parameters,
  /// positive stddevs, and no trailing bytes. On failure `error`, when
  /// given, names the reason.
  static std::optional<SimilarityModel> load(const std::string& path,
                                             std::string* error = nullptr);

 private:
  Network network_;
  FeatureNormalizer normalizer_;
};

}  // namespace patchecko
