#include "dl/network.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

namespace patchecko {

DenseLayer::DenseLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      w_(in_dim, out_dim),
      b_(out_dim, 0.f),
      gw_(in_dim, out_dim),
      gb_(out_dim, 0.f),
      mw_(in_dim, out_dim),
      vw_(in_dim, out_dim),
      mb_(out_dim, 0.f),
      vb_(out_dim, 0.f) {
  // He initialization (ReLU-friendly).
  const double scale = std::sqrt(2.0 / static_cast<double>(in_dim));
  for (float& w : w_.data)
    w = static_cast<float>(rng.gaussian(0.0, scale));
}

std::size_t compact_nonzeros(const float* x, std::size_t n,
                             std::uint32_t* rows, float* values) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] == 0.f) continue;
    rows[count] = static_cast<std::uint32_t>(i);
    values[count] = x[i];
    ++count;
  }
  return count;
}

namespace {

// Four floats, multiplied and added lane by lane (GCC/Clang vector
// extension). Explicit vectors keep a tile's accumulators in registers
// whatever the optimizer's loop heuristics.
typedef float f32x4 __attribute__((vector_size(16)));

f32x4 load4(const float* p) {
  f32x4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void store4(float* p, f32x4 v) { std::memcpy(p, &v, sizeof(v)); }

}  // namespace

void accumulate_rows(const float* w, std::size_t out_dim,
                     const std::uint32_t* rows, const float* values,
                     std::size_t count, float* y) {
  std::size_t o = 0;
  for (; o + 16 <= out_dim; o += 16) {
    f32x4 acc0 = load4(y + o), acc1 = load4(y + o + 4),
          acc2 = load4(y + o + 8), acc3 = load4(y + o + 12);
    for (std::size_t k = 0; k < count; ++k) {
      const float value = values[k];
      const f32x4 v = {value, value, value, value};
      const float* wrow = w + static_cast<std::size_t>(rows[k]) * out_dim + o;
      acc0 += v * load4(wrow);
      acc1 += v * load4(wrow + 4);
      acc2 += v * load4(wrow + 8);
      acc3 += v * load4(wrow + 12);
    }
    store4(y + o, acc0);
    store4(y + o + 4, acc1);
    store4(y + o + 8, acc2);
    store4(y + o + 12, acc3);
  }
  for (; o < out_dim; ++o) {
    float acc = y[o];
    for (std::size_t k = 0; k < count; ++k)
      acc += values[k] * w[static_cast<std::size_t>(rows[k]) * out_dim + o];
    y[o] = acc;
  }
}

void DenseLayer::forward_row(const float* x, float* y, std::uint32_t* rows,
                             float* values) const {
  std::copy(b_.begin(), b_.end(), y);
  const std::size_t count = compact_nonzeros(x, in_dim_, rows, values);
  accumulate_rows(w_.data.data(), out_dim_, rows, values, count, y);
}

Matrix DenseLayer::forward(const Matrix& x) const {
  if (x.cols != in_dim_)
    throw std::invalid_argument("DenseLayer::forward: dimension mismatch");
  Matrix y(x.rows, out_dim_);
  std::vector<std::uint32_t> rows(in_dim_);
  std::vector<float> values(in_dim_);
  for (std::size_t r = 0; r < x.rows; ++r)
    forward_row(&x.data[r * in_dim_], &y.data[r * out_dim_], rows.data(),
                values.data());
  return y;
}

Matrix DenseLayer::backward(const Matrix& x, const Matrix& grad_y) {
  Matrix grad_x(x.rows, in_dim_);
  for (std::size_t r = 0; r < x.rows; ++r) {
    const float* xin = &x.data[r * in_dim_];
    const float* gy = &grad_y.data[r * out_dim_];
    float* gx = &grad_x.data[r * in_dim_];
    for (std::size_t o = 0; o < out_dim_; ++o) gb_[o] += gy[o];
    for (std::size_t i = 0; i < in_dim_; ++i) {
      const float* wrow = &w_.data[i * out_dim_];
      float* gwrow = &gw_.data[i * out_dim_];
      float acc = 0.f;
      const float xi = xin[i];
      for (std::size_t o = 0; o < out_dim_; ++o) {
        acc += wrow[o] * gy[o];
        gwrow[o] += xi * gy[o];
      }
      gx[i] = acc;
    }
  }
  return grad_x;
}

void DenseLayer::adam_step(float lr, float beta1, float beta2, float eps,
                           int t) {
  const float bc1 = 1.f - std::pow(beta1, static_cast<float>(t));
  const float bc2 = 1.f - std::pow(beta2, static_cast<float>(t));
  for (std::size_t i = 0; i < w_.data.size(); ++i) {
    mw_.data[i] = beta1 * mw_.data[i] + (1.f - beta1) * gw_.data[i];
    vw_.data[i] =
        beta2 * vw_.data[i] + (1.f - beta2) * gw_.data[i] * gw_.data[i];
    w_.data[i] -=
        lr * (mw_.data[i] / bc1) / (std::sqrt(vw_.data[i] / bc2) + eps);
  }
  for (std::size_t i = 0; i < b_.size(); ++i) {
    mb_[i] = beta1 * mb_[i] + (1.f - beta1) * gb_[i];
    vb_[i] = beta2 * vb_[i] + (1.f - beta2) * gb_[i] * gb_[i];
    b_[i] -= lr * (mb_[i] / bc1) / (std::sqrt(vb_[i] / bc2) + eps);
  }
}

void DenseLayer::zero_grad() {
  std::fill(gw_.data.begin(), gw_.data.end(), 0.f);
  std::fill(gb_.begin(), gb_.end(), 0.f);
}

namespace {

void relu_inplace(Matrix& m) {
  for (float& v : m.data) v = v > 0.f ? v : 0.f;
}

}  // namespace

float sigmoid(float v) { return 1.f / (1.f + std::exp(-v)); }

Network::Network(const std::vector<std::size_t>& dims, std::uint64_t seed) {
  if (dims.size() < 2)
    throw std::invalid_argument("Network: need at least input and output");
  Rng rng(seed);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i)
    layers_.emplace_back(dims[i], dims[i + 1], rng);
}

Network Network::make_patchecko_model(std::uint64_t seed,
                                      std::size_t input_dim) {
  // 6 layers, input shape 96 (Section V-B).
  return Network({input_dim, 96, 64, 48, 32, 16, 1}, seed);
}

Matrix Network::forward_cached(const Matrix& x,
                               std::vector<Matrix>& activations) const {
  activations.clear();
  activations.push_back(x);
  Matrix current = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    current = layers_[l].forward(current);
    if (l + 1 < layers_.size()) {
      relu_inplace(current);
      activations.push_back(current);
    }
  }
  return current;  // pre-sigmoid logits
}

std::vector<float> Network::predict(const Matrix& x) const {
  std::vector<Matrix> scratch;
  const Matrix logits = forward_cached(x, scratch);
  std::vector<float> out(x.rows);
  for (std::size_t r = 0; r < x.rows; ++r) out[r] = sigmoid(logits.data[r]);
  return out;
}

EpochStats Network::train_epoch(const Matrix& x, const std::vector<float>& y,
                                const TrainConfig& config, Rng& rng) {
  const std::size_t n = x.rows;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);

  double total_loss = 0.0;
  std::size_t correct = 0;

  for (std::size_t begin = 0; begin < n; begin += config.batch_size) {
    const std::size_t batch = std::min(config.batch_size, n - begin);
    Matrix xb(batch, x.cols);
    std::vector<float> yb(batch);
    for (std::size_t r = 0; r < batch; ++r) {
      const std::size_t src = order[begin + r];
      std::copy_n(&x.data[src * x.cols], x.cols, &xb.data[r * x.cols]);
      yb[r] = y[src];
    }

    std::vector<Matrix> activations;
    const Matrix logits = forward_cached(xb, activations);

    // BCE-with-logits: dL/dlogit = sigmoid(logit) - label, averaged.
    Matrix grad(batch, 1);
    for (std::size_t r = 0; r < batch; ++r) {
      const float p = sigmoid(logits.data[r]);
      const float label = yb[r];
      const float pc = std::clamp(p, 1e-7f, 1.f - 1e-7f);
      total_loss += -(label * std::log(pc) + (1.f - label) * std::log(1.f - pc));
      if ((p >= 0.5f) == (label >= 0.5f)) ++correct;
      grad.data[r] = (p - label) / static_cast<float>(batch);
    }

    for (auto& layer : layers_) layer.zero_grad();
    Matrix g = grad;
    for (std::size_t l = layers_.size(); l-- > 0;) {
      g = layers_[l].backward(activations[l], g);
      if (l > 0) {
        // ReLU gradient gate on the cached post-activation values.
        const Matrix& act = activations[l];
        for (std::size_t i = 0; i < g.data.size(); ++i)
          if (act.data[i] <= 0.f) g.data[i] = 0.f;
      }
    }
    ++adam_t_;
    for (auto& layer : layers_)
      layer.adam_step(config.learning_rate, config.beta1, config.beta2,
                      config.epsilon, adam_t_);
  }

  EpochStats stats;
  stats.loss = total_loss / static_cast<double>(n);
  stats.accuracy = static_cast<double>(correct) / static_cast<double>(n);
  return stats;
}

EpochStats Network::evaluate(const Matrix& x,
                             const std::vector<float>& y) const {
  const std::vector<float> preds = predict(x);
  EpochStats stats;
  double total_loss = 0.0;
  std::size_t correct = 0;
  for (std::size_t r = 0; r < preds.size(); ++r) {
    const float pc = std::clamp(preds[r], 1e-7f, 1.f - 1e-7f);
    total_loss +=
        -(y[r] * std::log(pc) + (1.f - y[r]) * std::log(1.f - pc));
    if ((preds[r] >= 0.5f) == (y[r] >= 0.5f)) ++correct;
  }
  stats.loss = preds.empty() ? 0.0
                             : total_loss / static_cast<double>(preds.size());
  stats.accuracy = preds.empty()
                       ? 0.0
                       : static_cast<double>(correct) /
                             static_cast<double>(preds.size());
  return stats;
}

double auc_score(const std::vector<float>& scores,
                 const std::vector<float>& labels) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] < scores[b];
  });
  // Rank statistic with tie-averaged ranks.
  double pos_rank_sum = 0.0;
  std::size_t positives = 0, negatives = 0;
  std::size_t i = 0;
  double rank = 1.0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() &&
           scores[order[j + 1]] == scores[order[i]])
      ++j;
    const double avg_rank = (rank + rank + static_cast<double>(j - i)) / 2.0;
    for (std::size_t k = i; k <= j; ++k) {
      if (labels[order[k]] >= 0.5f) {
        pos_rank_sum += avg_rank;
        ++positives;
      } else {
        ++negatives;
      }
    }
    rank += static_cast<double>(j - i + 1);
    i = j + 1;
  }
  if (positives == 0 || negatives == 0) return 0.5;
  const double u = pos_rank_sum - static_cast<double>(positives) *
                                      (static_cast<double>(positives) + 1) /
                                      2.0;
  return u / (static_cast<double>(positives) *
              static_cast<double>(negatives));
}

double accuracy_score(const std::vector<float>& scores,
                      const std::vector<float>& labels, float threshold) {
  if (scores.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < scores.size(); ++i)
    if ((scores[i] >= threshold) == (labels[i] >= 0.5f)) ++correct;
  return static_cast<double>(correct) / static_cast<double>(scores.size());
}

}  // namespace patchecko
