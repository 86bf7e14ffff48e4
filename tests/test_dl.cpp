// Tests for the neural-network stack: numerical gradient checking, learning
// on synthetic separable data, metrics, model serialization, and bit-identity
// of the dense kernel and batch scoring path against a naive reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "dl/dataset.h"
#include "dl/network.h"
#include "dl/similarity_model.h"
#include "dl/trainer.h"

namespace patchecko {
namespace {

// --- naive reference ---------------------------------------------------------
// The original inference path, kept verbatim as the bit-identity oracle: a
// plain dense loop (bias, then nonzero inputs in ascending order), ReLU
// between layers, sigmoid head, and a score averaging both pair orders.

Matrix reference_forward(const DenseLayer& layer, const Matrix& x) {
  const std::size_t in_dim = layer.in_dim(), out_dim = layer.out_dim();
  Matrix y(x.rows, out_dim);
  for (std::size_t r = 0; r < x.rows; ++r) {
    const float* xin = &x.data[r * in_dim];
    float* yout = &y.data[r * out_dim];
    for (std::size_t o = 0; o < out_dim; ++o) yout[o] = layer.biases()[o];
    for (std::size_t i = 0; i < in_dim; ++i) {
      const float xi = xin[i];
      if (xi == 0.f) continue;
      const float* wrow = &layer.weights()[i * out_dim];
      for (std::size_t o = 0; o < out_dim; ++o) yout[o] += xi * wrow[o];
    }
  }
  return y;
}

float reference_predict(const Network& net, const std::vector<float>& x) {
  Matrix current(1, x.size());
  current.data = x;
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    current = reference_forward(net.layers()[l], current);
    if (l + 1 < net.layers().size())
      for (float& v : current.data) v = v > 0.f ? v : 0.f;
  }
  return 1.f / (1.f + std::exp(-current.data[0]));
}

std::vector<float> reference_pair_input(const SimilarityModel& model,
                                        const StaticFeatureVector& a,
                                        const StaticFeatureVector& b) {
  std::vector<float> input;
  for (double v : model.normalizer().transform(a))
    input.push_back(static_cast<float>(v));
  for (double v : model.normalizer().transform(b))
    input.push_back(static_cast<float>(v));
  return input;
}

float reference_score(const SimilarityModel& model,
                      const StaticFeatureVector& a,
                      const StaticFeatureVector& b) {
  const float forward =
      reference_predict(model.network(), reference_pair_input(model, a, b));
  const float backward =
      reference_predict(model.network(), reference_pair_input(model, b, a));
  return 0.5f * (forward + backward);
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(Matrix, IndexingRowMajor) {
  Matrix m(2, 3);
  m.at(1, 2) = 5.f;
  EXPECT_EQ(m.data[1 * 3 + 2], 5.f);
  EXPECT_EQ(m.rows, 2u);
  EXPECT_EQ(m.cols, 3u);
}

TEST(DenseLayer, ForwardComputesAffine) {
  Rng rng(1);
  DenseLayer layer(2, 1, rng);
  layer.weights() = {2.f, 3.f};  // w[0][0]=2 (in0->out0), w[1][0]=3
  layer.biases() = {1.f};
  Matrix x(1, 2);
  x.data = {4.f, 5.f};
  const Matrix y = layer.forward(x);
  EXPECT_FLOAT_EQ(y.data[0], 2.f * 4.f + 3.f * 5.f + 1.f);
}

TEST(DenseLayer, ForwardMatchesNaiveLoopBitForBit) {
  // Shapes straddle the kernel's 16-wide tile (tails of 1, 15, 1, ...), and
  // inputs mix +0, -0 (both skipped), tiny, and large magnitudes.
  const std::size_t shapes[][2] = {{96, 96}, {96, 64}, {48, 32}, {17, 33},
                                   {5, 1},   {64, 16}, {3, 15}, {40, 47}};
  Rng rng(42);
  for (const auto& shape : shapes) {
    DenseLayer layer(shape[0], shape[1], rng);
    for (float& b : layer.biases())
      b = static_cast<float>(rng.uniform_real(-2, 2));
    Matrix x(37, shape[0]);
    for (float& v : x.data) {
      const double pick = rng.uniform_real(0, 1);
      if (pick < 0.25)
        v = 0.f;
      else if (pick < 0.4)
        v = -0.f;
      else if (pick < 0.5)
        v = static_cast<float>(rng.uniform_real(-1e30, 1e30));
      else if (pick < 0.55)
        v = static_cast<float>(rng.uniform_real(-1e-30, 1e-30));
      else
        v = static_cast<float>(rng.gaussian(0.0, 3.0));
    }
    const Matrix expected = reference_forward(layer, x);
    const Matrix actual = layer.forward(x);
    EXPECT_TRUE(same_bits(expected.data, actual.data))
        << shape[0] << "x" << shape[1];
  }
}

TEST(DenseLayer, ForwardRejectsBadShape) {
  Rng rng(1);
  DenseLayer layer(3, 2, rng);
  Matrix x(1, 4);
  EXPECT_THROW(layer.forward(x), std::invalid_argument);
}

TEST(Network, GradientMatchesNumericalEstimate) {
  // Single-layer logistic regression: analytic gradient from train_epoch's
  // backward pass must match the numeric derivative of the BCE loss.
  Rng rng(7);
  Network net({3, 1}, 7);
  Matrix x(4, 3);
  std::vector<float> y{1.f, 0.f, 1.f, 0.f};
  Rng data_rng(9);
  for (float& v : x.data)
    v = static_cast<float>(data_rng.uniform_real(-1, 1));

  auto loss_of = [&](Network& n) {
    return n.evaluate(x, y).loss;
  };

  // Numeric gradient wrt the first weight.
  const float eps = 1e-3f;
  Network plus = net, minus = net;
  plus.layers()[0].weights()[0] += eps;
  minus.layers()[0].weights()[0] -= eps;
  const double numeric =
      (loss_of(plus) - loss_of(minus)) / (2.0 * eps);

  // Analytic gradient: run one batch backward by hand via train_epoch with
  // zero learning rate is not possible; instead approximate using a tiny
  // learning-rate SGD-like probe: the Adam first step moves opposite in
  // sign to the gradient.
  Network probe = net;
  TrainConfig config;
  config.learning_rate = 1e-4f;
  config.batch_size = 4;
  Rng shuffle(1);
  const float before = probe.layers()[0].weights()[0];
  (void)probe.train_epoch(x, y, config, shuffle);
  const float after = probe.layers()[0].weights()[0];
  if (std::abs(numeric) > 1e-4) {
    EXPECT_LT((after - before) * numeric, 0.0)
        << "Adam must step against the gradient";
  }
}

TEST(Network, LearnsLinearlySeparableData) {
  Rng data_rng(11);
  const std::size_t n = 600;
  Matrix x(n, 4);
  std::vector<float> y(n);
  for (std::size_t r = 0; r < n; ++r) {
    float sum = 0;
    for (std::size_t c = 0; c < 4; ++c) {
      const float v = static_cast<float>(data_rng.uniform_real(-1, 1));
      x.at(r, c) = v;
      sum += v;
    }
    y[r] = sum > 0 ? 1.f : 0.f;
  }
  Network net({4, 16, 8, 1}, 3);
  TrainConfig config;
  Rng shuffle(5);
  EpochStats stats;
  for (int epoch = 0; epoch < 30; ++epoch)
    stats = net.train_epoch(x, y, config, shuffle);
  EXPECT_GT(stats.accuracy, 0.95);
}

TEST(Network, LearnsXorNonlinearity) {
  Matrix x(4, 2);
  x.data = {0, 0, 0, 1, 1, 0, 1, 1};
  std::vector<float> y{0.f, 1.f, 1.f, 0.f};
  Network net({2, 8, 8, 1}, 21);
  TrainConfig config;
  config.learning_rate = 5e-3f;
  config.batch_size = 4;
  Rng shuffle(2);
  for (int epoch = 0; epoch < 800; ++epoch)
    (void)net.train_epoch(x, y, config, shuffle);
  const auto preds = net.predict(x);
  EXPECT_LT(preds[0], 0.5f);
  EXPECT_GT(preds[1], 0.5f);
  EXPECT_GT(preds[2], 0.5f);
  EXPECT_LT(preds[3], 0.5f);
}

TEST(Network, PatcheckoModelShape) {
  const Network net = Network::make_patchecko_model(1);
  EXPECT_EQ(net.layers().size(), 6u);  // the paper's 6-layer sequential
  EXPECT_EQ(net.layers().front().in_dim(), 96u);
  EXPECT_EQ(net.layers().back().out_dim(), 1u);
}

TEST(Network, DeterministicFromSeed) {
  Network a = Network::make_patchecko_model(5);
  Network b = Network::make_patchecko_model(5);
  Matrix input(1, 96);
  input.data.assign(96, 0.3f);
  EXPECT_EQ(a.predict(input), b.predict(input));
}

TEST(Metrics, AucPerfectAndInverted) {
  const std::vector<float> labels{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(auc_score({0.1f, 0.2f, 0.8f, 0.9f}, labels), 1.0);
  EXPECT_DOUBLE_EQ(auc_score({0.9f, 0.8f, 0.2f, 0.1f}, labels), 0.0);
}

TEST(Metrics, AucTiesGiveHalf) {
  const std::vector<float> labels{0, 1};
  EXPECT_DOUBLE_EQ(auc_score({0.5f, 0.5f}, labels), 0.5);
}

TEST(Metrics, AucDegenerateClasses) {
  EXPECT_DOUBLE_EQ(auc_score({0.2f, 0.4f}, {1.f, 1.f}), 0.5);
}

TEST(Metrics, AccuracyThreshold) {
  const std::vector<float> labels{0, 1, 1};
  EXPECT_DOUBLE_EQ(accuracy_score({0.2f, 0.9f, 0.4f}, labels), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(accuracy_score({0.2f, 0.9f, 0.4f}, labels, 0.3f), 1.0);
}

TEST(SimilarityModel, ScoreIsSymmetric) {
  Network net = Network::make_patchecko_model(13);
  FeatureNormalizer normalizer;
  normalizer.fit({});
  const SimilarityModel model(std::move(net), normalizer);
  StaticFeatureVector a{}, b{};
  a.fill(3.0);
  b.fill(8.0);
  EXPECT_FLOAT_EQ(model.score(a, b), model.score(b, a));
}

TEST(SimilarityModel, SaveLoadRoundTrip) {
  Network net = Network::make_patchecko_model(17);
  std::vector<StaticFeatureVector> corpus(10);
  Rng rng(2);
  for (auto& v : corpus)
    for (double& x : v) x = rng.uniform_real(0, 20);
  FeatureNormalizer normalizer;
  normalizer.fit(corpus);
  const SimilarityModel model(std::move(net), normalizer);

  const std::string path = "/tmp/pk_test_model.bin";
  ASSERT_TRUE(model.save(path));
  const auto loaded = SimilarityModel::load(path);
  ASSERT_TRUE(loaded.has_value());

  StaticFeatureVector a{}, b{};
  a.fill(2.0);
  b.fill(11.0);
  EXPECT_FLOAT_EQ(model.score(a, b), loaded->score(a, b));
  std::filesystem::remove(path);
}

TEST(SimilarityModel, LoadRejectsMissingAndCorrupt) {
  EXPECT_FALSE(SimilarityModel::load("/tmp/definitely_missing_model.bin")
                   .has_value());
  const std::string path = "/tmp/pk_corrupt_model.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a model", f);
  std::fclose(f);
  EXPECT_FALSE(SimilarityModel::load(path).has_value());
  std::filesystem::remove(path);
}

// --- batch scoring -----------------------------------------------------------

/// A lightly trained model plus the feature vectors of a generated library
/// (every compiled variant), with all-zero and all-negative-zero raw
/// vectors appended as edge inputs.
struct ScoringUniverse {
  SimilarityModel model;
  std::vector<StaticFeatureVector> library;

  ScoringUniverse() {
    TrainerConfig trainer;
    trainer.dataset.library_count = 6;
    trainer.dataset.functions_per_library = 10;
    trainer.epochs = 3;
    model = train_similarity_model(trainer).model;
    for (const FunctionVariants& fn : build_variant_corpus(trainer.dataset))
      library.insert(library.end(), fn.variants.begin(), fn.variants.end());
    StaticFeatureVector zeros{}, negative_zeros{};
    negative_zeros.fill(-0.0);
    library.push_back(zeros);
    library.push_back(negative_zeros);
  }
};

const ScoringUniverse& scoring_universe() {
  static const ScoringUniverse instance;
  return instance;
}

std::vector<float> score_all(const SimilarityModel& model,
                             const StaticFeatureVector& query,
                             const std::vector<StaticFeatureVector>& targets,
                             const std::vector<std::uint32_t>* indices,
                             std::size_t n, unsigned threads) {
  std::vector<float> out(n);
  EXPECT_TRUE(model.score_many(query, targets.data(),
                               indices ? indices->data() : nullptr, n,
                               out.data(), threads));
  return out;
}

TEST(SimilarityModel, ScoreManyMatchesReferenceCompositionBitForBit) {
  const ScoringUniverse& u = scoring_universe();
  const std::size_t n = u.library.size();
  ASSERT_GT(n, 2 * SimilarityModel::score_block);
  // Enough queries for at least 10k pairs, spread across the library.
  const std::size_t queries = 10000 / n + 1;
  std::size_t pairs = 0;
  for (std::size_t q = 0; q < queries; ++q) {
    const StaticFeatureVector& query = u.library[(q * 7919) % n];
    std::vector<float> expected(n);
    for (std::size_t t = 0; t < n; ++t)
      expected[t] = reference_score(u.model, query, u.library[t]);
    EXPECT_TRUE(same_bits(expected,
                          score_all(u.model, query, u.library, nullptr, n, 1)))
        << "query " << q << ", 1 thread";
    EXPECT_TRUE(same_bits(expected,
                          score_all(u.model, query, u.library, nullptr, n, 4)))
        << "query " << q << ", 4 threads";
    for (std::size_t t = 0; t < n; t += 97) {
      const float single = u.model.score(query, u.library[t]);
      EXPECT_EQ(std::memcmp(&single, &expected[t], sizeof(float)), 0) << t;
    }
    pairs += n;
  }
  EXPECT_GE(pairs, 10000u);
}

TEST(SimilarityModel, ScoreManyBlockBoundariesAndShortlists) {
  const ScoringUniverse& u = scoring_universe();
  const std::size_t full = u.library.size();
  const StaticFeatureVector& query = u.library[3];
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                              std::size_t{64}, std::size_t{65}, full}) {
    std::vector<float> expected(n);
    for (std::size_t t = 0; t < n; ++t)
      expected[t] = reference_score(u.model, query, u.library[t]);
    for (const unsigned threads : {1u, 4u})
      EXPECT_TRUE(same_bits(
          expected, score_all(u.model, query, u.library, nullptr, n, threads)))
          << "n=" << n << " threads=" << threads;
  }

  // An untrained normalizer maps raw zeros (common among the feature
  // counts) to zeros, so layer 0 skips terms in both halves of the pair.
  FeatureNormalizer identity;
  identity.fit({});
  const SimilarityModel raw_model(u.model.network(), identity);
  std::vector<float> expected_raw(full);
  for (std::size_t t = 0; t < full; ++t)
    expected_raw[t] = reference_score(raw_model, query, u.library[t]);
  EXPECT_TRUE(same_bits(
      expected_raw, score_all(raw_model, query, u.library, nullptr, full, 4)));

  // A shortlist: indices in an arbitrary (not ascending) order, with repeats.
  std::vector<std::uint32_t> shortlist;
  Rng rng(5);
  for (std::size_t k = 0; k < 2 * SimilarityModel::score_block + 7; ++k)
    shortlist.push_back(static_cast<std::uint32_t>(
        rng.uniform(0, static_cast<std::int64_t>(full) - 1)));
  std::vector<float> expected(shortlist.size());
  for (std::size_t k = 0; k < shortlist.size(); ++k)
    expected[k] = reference_score(u.model, query, u.library[shortlist[k]]);
  for (const unsigned threads : {1u, 4u})
    EXPECT_TRUE(same_bits(expected,
                          score_all(u.model, query, u.library, &shortlist,
                                    shortlist.size(), threads)))
        << "shortlist, threads=" << threads;
}

TEST(SimilarityModel, ScoreManyHonoursCancellation) {
  const ScoringUniverse& u = scoring_universe();
  std::vector<float> out(u.library.size());
  const std::atomic<bool> cancelled{true};
  EXPECT_FALSE(u.model.score_many(u.library[0], u.library.data(), nullptr,
                                  out.size(), out.data(), 4, &cancelled));
  const std::atomic<bool> running{false};
  EXPECT_TRUE(u.model.score_many(u.library[0], u.library.data(), nullptr,
                                 out.size(), out.data(), 4, &running));
}

TEST(SimilarityModel, ScoreRejectsNetworksOffTheInferenceShape) {
  FeatureNormalizer normalizer;
  normalizer.fit({});
  const StaticFeatureVector a{};
  const SimilarityModel narrow(Network({48, 1}, 1), normalizer);
  EXPECT_THROW((void)narrow.score(a, a), std::invalid_argument);
  const SimilarityModel wide_head(Network({96, 8, 2}, 1), normalizer);
  EXPECT_THROW((void)wide_head.score(a, a), std::invalid_argument);
}

// --- model file validation ---------------------------------------------------

/// Writes a PKML model file field by field, so each test can break exactly
/// one property of an otherwise valid 96 -> 8 -> 1 model.
struct ModelFile {
  struct Layer {
    std::uint32_t in_dim, out_dim;
    std::vector<float> weights, biases;
  };
  std::vector<double> means = std::vector<double>(48, 0.5);
  std::vector<double> stddevs = std::vector<double>(48, 2.0);
  std::vector<Layer> layers = {
      {96, 8, std::vector<float>(96 * 8, 0.01f), std::vector<float>(8, 0.1f)},
      {8, 1, std::vector<float>(8, -0.2f), std::vector<float>(1, 0.3f)}};
  std::string trailing;

  std::optional<SimilarityModel> load(std::string* error) const {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("pk_model_file_" +
          std::string(
              ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
          ".bin"))
            .string();
    {
      std::ofstream out(path, std::ios::binary);
      const auto put = [&](const void* data, std::size_t bytes) {
        out.write(static_cast<const char*>(data),
                  static_cast<std::streamsize>(bytes));
      };
      const std::uint32_t magic = 0x504b4d4c;
      put(&magic, 4);
      put(means.data(), means.size() * sizeof(double));
      put(stddevs.data(), stddevs.size() * sizeof(double));
      const auto count = static_cast<std::uint32_t>(layers.size());
      put(&count, 4);
      for (const Layer& layer : layers) {
        put(&layer.in_dim, 4);
        put(&layer.out_dim, 4);
        put(layer.weights.data(), layer.weights.size() * sizeof(float));
        put(layer.biases.data(), layer.biases.size() * sizeof(float));
      }
      out << trailing;
    }
    auto model = SimilarityModel::load(path, error);
    std::filesystem::remove(path);
    return model;
  }
};

void expect_rejected(const ModelFile& file, const std::string& reason) {
  std::string error;
  EXPECT_FALSE(file.load(&error).has_value());
  EXPECT_EQ(error, reason);
}

TEST(SimilarityModel, LoadRejectsBrokenDimensionChain) {
  // The second layer claims 8 inputs after a 96-wide first layer; read as
  // 96 -> 1 it would hold 8 of 96 weights and the kernel would over-read.
  ModelFile file;
  file.layers[0] = {96, 96, std::vector<float>(96 * 96, 0.01f),
                    std::vector<float>(96, 0.f)};
  expect_rejected(file, "broken dimension chain");
}

TEST(SimilarityModel, LoadRejectsFirstInDimOtherThan96) {
  ModelFile file;
  file.layers[0] = {48, 8, std::vector<float>(48 * 8, 0.01f),
                    std::vector<float>(8, 0.f)};
  expect_rejected(file, "first layer in_dim is not 96");
}

TEST(SimilarityModel, LoadRejectsLastOutDimOtherThan1) {
  ModelFile file;
  file.layers[1] = {8, 2, std::vector<float>(16, 0.01f),
                    std::vector<float>(2, 0.f)};
  expect_rejected(file, "last layer out_dim is not 1");
}

TEST(SimilarityModel, LoadRejectsNonFiniteWeight) {
  ModelFile file;
  file.layers[0].weights[17] = std::numeric_limits<float>::quiet_NaN();
  expect_rejected(file, "non-finite weight");
}

TEST(SimilarityModel, LoadRejectsNonFiniteBias) {
  ModelFile file;
  file.layers[1].biases[0] = std::numeric_limits<float>::infinity();
  expect_rejected(file, "non-finite bias");
}

TEST(SimilarityModel, LoadRejectsNonFiniteMean) {
  ModelFile file;
  file.means[5] = -std::numeric_limits<double>::infinity();
  expect_rejected(file, "non-finite mean");
}

TEST(SimilarityModel, LoadRejectsNonPositiveOrNonFiniteStddev) {
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    ModelFile file;
    file.stddevs[9] = bad;
    expect_rejected(file, "non-positive or non-finite stddev");
  }
}

TEST(SimilarityModel, LoadRejectsTrailingBytes) {
  ModelFile file;
  file.trailing = "x";
  expect_rejected(file, "trailing bytes");
}

}  // namespace
}  // namespace patchecko
