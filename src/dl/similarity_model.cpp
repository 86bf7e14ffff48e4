#include "dl/similarity_model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>

#include "util/parallel.h"

namespace patchecko {

namespace {

constexpr std::size_t half_width = static_feature_count;

/// The inference path's shape contract: a [query, target] pair input, a
/// consistent chain no wider than the stack scratch, one output. load()
/// rejects files that break it; this guards models built in code.
void check_inference_shape(const std::vector<DenseLayer>& layers) {
  if (layers.empty() || layers.front().in_dim() != 2 * half_width ||
      layers.back().out_dim() != 1)
    throw std::invalid_argument("SimilarityModel: network is not 96 -> 1");
  for (std::size_t l = 0; l < layers.size(); ++l)
    if (layers[l].out_dim() > max_layer_width ||
        (l > 0 && layers[l].in_dim() != layers[l - 1].out_dim()))
      throw std::invalid_argument("SimilarityModel: bad layer dimensions");
}

void normalize_into(const FeatureNormalizer& normalizer,
                    const StaticFeatureVector& raw, float* out) {
  const StaticFeatureVector normalized = normalizer.transform(raw);
  for (std::size_t i = 0; i < half_width; ++i)
    out[i] = static_cast<float>(normalized[i]);
}

/// Finishes one pass: `a` holds layer 0's sums; applies ReLU and the
/// remaining layers, ping-ponging between `a` and `b`, and returns the
/// sigmoid of the final logit.
float finish_pass(const std::vector<DenseLayer>& layers, float* a, float* b,
                  std::uint32_t* rows, float* values) {
  for (std::size_t l = 1; l < layers.size(); ++l) {
    const std::size_t width = layers[l - 1].out_dim();
    for (std::size_t i = 0; i < width; ++i) a[i] = a[i] > 0.f ? a[i] : 0.f;
    layers[l].forward_row(a, b, rows, values);
    std::swap(a, b);
  }
  return sigmoid(a[0]);
}

}  // namespace

float SimilarityModel::score(const StaticFeatureVector& a,
                             const StaticFeatureVector& b) const {
  float out = 0.f;
  score_many(a, &b, nullptr, 1, &out);
  return out;
}

bool SimilarityModel::score_many(const StaticFeatureVector& query,
                                 const StaticFeatureVector* targets,
                                 const std::uint32_t* indices, std::size_t n,
                                 float* out, unsigned threads,
                                 const std::atomic<bool>* cancel) const {
  const std::vector<DenseLayer>& layers = network_.layers();
  check_inference_shape(layers);
  const DenseLayer& first = layers.front();
  const std::size_t width = first.out_dim();
  const float* w_lead = first.weights().data();
  const float* w_trail = w_lead + half_width * width;

  // The pair input is ordered; the score averages [query, target] and
  // [target, query] so score(a,b) == score(b,a) and a single lopsided
  // prediction cannot drop a true match. Layer 0 sums bias, then the
  // leading half, then the trailing half; only a prefix can be shared
  // bit-exactly, so the query's leading-half sums are computed once and the
  // backward pass runs its query terms after each target's.
  float query_norm[half_width];
  std::uint32_t query_rows[half_width];
  float query_values[half_width];
  normalize_into(normalizer_, query, query_norm);
  const std::size_t query_count =
      compact_nonzeros(query_norm, half_width, query_rows, query_values);
  float query_prefix[max_layer_width];
  std::copy(first.biases().begin(), first.biases().end(), query_prefix);
  accumulate_rows(w_lead, width, query_rows, query_values, query_count,
                  query_prefix);

  const auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };
  const std::size_t blocks = (n + score_block - 1) / score_block;
  parallel_for(blocks, threads, [&](std::size_t block) {
    if (cancelled()) return;
    float target_norm[half_width];
    std::uint32_t target_rows[half_width];
    float target_values[half_width];
    float a[max_layer_width], b[max_layer_width];
    std::uint32_t rows[max_layer_width];
    float values[max_layer_width];
    const std::size_t end = std::min(n, (block + 1) * score_block);
    for (std::size_t k = block * score_block; k < end; ++k) {
      normalize_into(normalizer_, targets[indices ? indices[k] : k],
                     target_norm);
      const std::size_t target_count = compact_nonzeros(
          target_norm, half_width, target_rows, target_values);

      std::copy(query_prefix, query_prefix + width, a);
      accumulate_rows(w_trail, width, target_rows, target_values,
                      target_count, a);
      const float forward = finish_pass(layers, a, b, rows, values);

      std::copy(first.biases().begin(), first.biases().end(), a);
      accumulate_rows(w_lead, width, target_rows, target_values, target_count,
                      a);
      accumulate_rows(w_trail, width, query_rows, query_values, query_count,
                      a);
      const float backward = finish_pass(layers, a, b, rows, values);
      out[k] = 0.5f * (forward + backward);
    }
  });
  return !cancelled();
}

namespace {
constexpr std::uint32_t model_magic = 0x504b4d4c;  // "PKML"
}

bool SimilarityModel::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  auto put_u32 = [&](std::uint32_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto put_f64 = [&](double v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_u32(model_magic);
  for (double v : normalizer_.means()) put_f64(v);
  for (double v : normalizer_.stddevs()) put_f64(v);
  put_u32(static_cast<std::uint32_t>(network_.layers().size()));
  for (const DenseLayer& layer : network_.layers()) {
    put_u32(static_cast<std::uint32_t>(layer.in_dim()));
    put_u32(static_cast<std::uint32_t>(layer.out_dim()));
    out.write(reinterpret_cast<const char*>(layer.weights().data()),
              static_cast<std::streamsize>(layer.weights().size() *
                                           sizeof(float)));
    out.write(reinterpret_cast<const char*>(layer.biases().data()),
              static_cast<std::streamsize>(layer.biases().size() *
                                           sizeof(float)));
  }
  return static_cast<bool>(out);
}

std::optional<SimilarityModel> SimilarityModel::load(const std::string& path,
                                                     std::string* error) {
  const auto reject = [&](const char* reason) {
    if (error != nullptr) *error = reason;
    return std::optional<SimilarityModel>{};
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) return reject("cannot open file");
  auto get_u32 = [&]() {
    std::uint32_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  auto get_f64 = [&]() {
    double v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  if (get_u32() != model_magic) return reject("bad magic");
  StaticFeatureVector mean{}, stddev{};
  for (double& v : mean) v = get_f64();
  for (double& v : stddev) v = get_f64();
  if (!in) return reject("truncated normalizer");
  for (double v : mean)
    if (!std::isfinite(v)) return reject("non-finite mean");
  for (double v : stddev)
    if (!std::isfinite(v) || v <= 0.0)
      return reject("non-positive or non-finite stddev");
  FeatureNormalizer normalizer;
  normalizer.set_parameters(mean, stddev);

  const std::uint32_t layer_count = get_u32();
  if (!in) return reject("truncated layer count");
  if (layer_count == 0 || layer_count > 64) return reject("bad layer count");
  std::vector<std::size_t> dims;
  std::vector<std::pair<std::vector<float>, std::vector<float>>> params;
  const auto all_finite = [](const std::vector<float>& values) {
    return std::all_of(values.begin(), values.end(),
                       [](float v) { return std::isfinite(v); });
  };
  for (std::uint32_t l = 0; l < layer_count; ++l) {
    const std::uint32_t in_dim = get_u32();
    const std::uint32_t out_dim = get_u32();
    if (!in) return reject("truncated layer header");
    if (in_dim == 0 || out_dim == 0 || in_dim > max_layer_width ||
        out_dim > max_layer_width)
      return reject("layer width out of range");
    if (l == 0 && in_dim != 2 * half_width)
      return reject("first layer in_dim is not 96");
    if (l > 0 && in_dim != dims.back())
      return reject("broken dimension chain");
    if (l == 0) dims.push_back(in_dim);
    dims.push_back(out_dim);
    std::vector<float> weights(static_cast<std::size_t>(in_dim) * out_dim);
    std::vector<float> biases(out_dim);
    in.read(reinterpret_cast<char*>(weights.data()),
            static_cast<std::streamsize>(weights.size() * sizeof(float)));
    in.read(reinterpret_cast<char*>(biases.data()),
            static_cast<std::streamsize>(biases.size() * sizeof(float)));
    if (!in) return reject("truncated layer parameters");
    if (!all_finite(weights)) return reject("non-finite weight");
    if (!all_finite(biases)) return reject("non-finite bias");
    params.emplace_back(std::move(weights), std::move(biases));
  }
  if (dims.back() != 1) return reject("last layer out_dim is not 1");
  if (in.peek() != std::ifstream::traits_type::eof())
    return reject("trailing bytes");

  Network network(dims, /*seed=*/0);
  for (std::size_t l = 0; l < params.size(); ++l) {
    network.layers()[l].weights() = std::move(params[l].first);
    network.layers()[l].biases() = std::move(params[l].second);
  }
  return SimilarityModel(std::move(network), std::move(normalizer));
}

}  // namespace patchecko
