#include "model/online_fit.hpp"

#include <algorithm>
#include <cmath>

#include "phy/lte_params.hpp"

namespace rtopex::model {

namespace {

constexpr double kNsPerUs = 1000.0;

bool all_finite(const std::array<double, RlsEstimator::kDim>& v) {
  for (const double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

}  // namespace

RlsEstimator::RlsEstimator(double lambda, double delta)
    : lambda_(std::clamp(lambda, 1e-3, 1.0)) {
  const double d = delta > 0.0 && std::isfinite(delta) ? delta : 1e3;
  for (std::size_t i = 0; i < kDim; ++i) p_[i][i] = d;
}

void RlsEstimator::observe(const std::array<double, kDim>& x, double y) {
  if (!std::isfinite(y) || !all_finite(x)) return;

  // px = P x  (P is symmetric), denom = lambda + x' P x.
  std::array<double, kDim> px{};
  for (std::size_t i = 0; i < kDim; ++i)
    for (std::size_t j = 0; j < kDim; ++j) px[i] += p_[i][j] * x[j];
  double denom = lambda_;
  for (std::size_t i = 0; i < kDim; ++i) denom += x[i] * px[i];
  if (!(denom > 1e-12) || !std::isfinite(denom)) return;

  std::array<double, kDim> k{};
  for (std::size_t i = 0; i < kDim; ++i) k[i] = px[i] / denom;

  double err = y;
  for (std::size_t i = 0; i < kDim; ++i) err -= theta_[i] * x[i];

  std::array<double, kDim> theta = theta_;
  for (std::size_t i = 0; i < kDim; ++i) theta[i] += k[i] * err;
  // P' = (P - k (P x)') / lambda; reject the update wholesale if anything
  // went non-finite (extreme inputs), keeping the prior state intact.
  std::array<std::array<double, kDim>, kDim> p = p_;
  bool ok = all_finite(theta);
  for (std::size_t i = 0; i < kDim && ok; ++i)
    for (std::size_t j = 0; j < kDim; ++j) {
      p[i][j] = (p_[i][j] - k[i] * px[j]) / lambda_;
      if (!std::isfinite(p[i][j])) {
        ok = false;
        break;
      }
    }
  if (!ok) return;
  theta_ = theta;
  p_ = p;
  ++samples_;
}

double RlsEstimator::predict(const std::array<double, kDim>& x) const {
  double y = 0.0;
  for (std::size_t i = 0; i < kDim; ++i) y += theta_[i] * x[i];
  return y;
}

Eq1OnlineFit::Eq1OnlineFit(const AdaptiveParams& params)
    : params_(params), rls_(params.rls_lambda, params.rls_delta) {}

void Eq1OnlineFit::observe(unsigned antennas, unsigned modulation_order,
                           double subcarrier_load, double iterations,
                           Duration time) {
  if (time <= 0) return;  // stage never ran (fault-truncated / dropped).
  const std::array<double, RlsEstimator::kDim> x = {
      1.0, static_cast<double>(antennas),
      static_cast<double>(modulation_order), subcarrier_load * iterations};
  rls_.observe(x, static_cast<double>(time) / kNsPerUs);
}

Duration Eq1OnlineFit::predict_or(unsigned antennas, unsigned modulation_order,
                                  double subcarrier_load, double iterations,
                                  Duration fallback) const {
  const Duration safe_fallback = std::max<Duration>(1, fallback);
  if (!warmed_up()) return safe_fallback;
  const std::array<double, RlsEstimator::kDim> x = {
      1.0, static_cast<double>(antennas),
      static_cast<double>(modulation_order), subcarrier_load * iterations};
  const double us = rls_.predict(x);
  if (!std::isfinite(us) || us <= 0.0) return safe_fallback;
  return std::max<Duration>(1, static_cast<Duration>(std::llround(us * kNsPerUs)));
}

IterationPredictor::IterationPredictor(double initial, unsigned max_iterations,
                                       const AdaptiveParams& params)
    : mean_(initial), lm_(std::max(1u, max_iterations)), params_(params) {
  if (!std::isfinite(mean_) || mean_ <= 0.0) mean_ = static_cast<double>(lm_);
}

void IterationPredictor::observe(unsigned executed) {
  if (executed == 0) return;  // decode never ran; not an iteration sample.
  const double sample =
      std::min(static_cast<double>(executed), static_cast<double>(lm_));
  mean_ += params_.iteration_alpha * (sample - mean_);
  ++samples_;
}

unsigned IterationPredictor::predict() const {
  const double with_headroom = mean_ + params_.iteration_headroom;
  if (!std::isfinite(with_headroom)) return lm_;
  const double rounded = std::ceil(with_headroom);
  return static_cast<unsigned>(
      std::clamp(rounded, 1.0, static_cast<double>(lm_)));
}

void DurationEwma::observe(Duration sample) {
  if (sample <= 0) return;
  const double s = static_cast<double>(sample);
  value_ = has_value_ ? value_ + alpha_ * (s - value_) : s;
  has_value_ = true;
  ++samples_;
}

Duration DurationEwma::value_or(Duration fallback) const {
  if (!has_value_ || !std::isfinite(value_) || value_ < 1.0)
    return std::max<Duration>(1, fallback);
  return static_cast<Duration>(std::llround(value_));
}

void MeanVarEwma::observe(double sample) {
  if (!std::isfinite(sample)) return;
  if (samples_ == 0) {
    mean_ = sample;
  } else {
    // Deviation against the *previous* mean keeps the variance estimate
    // unbiased-ish under level shifts (the shift itself contributes spread).
    const double dev = sample - mean_;
    var_ += alpha_ * (dev * dev - var_);
    mean_ += alpha_ * dev;
  }
  ++samples_;
}

double MeanVarEwma::stddev() const {
  if (samples_ < 2 || !std::isfinite(var_) || var_ <= 0.0) return 0.0;
  return std::sqrt(var_);
}

double MeanVarEwma::zscore(double x) const {
  if (!warmed_up() || !std::isfinite(x)) return 0.0;
  const double sigma = stddev();
  if (sigma <= 0.0) return 0.0;
  const double z = (x - mean_) / sigma;
  return std::isfinite(z) ? z : 0.0;
}

OnlineEstimators::OnlineEstimators(unsigned num_antennas, unsigned num_prb,
                                   unsigned num_basestations,
                                   unsigned max_iterations,
                                   const StageTimes& seeds,
                                   const AdaptiveParams& params)
    : antennas_(num_antennas),
      num_prb_(num_prb),
      lm_(std::max(1u, max_iterations)),
      fit_(params),
      decode_subtask_(params.duration_alpha, seeds.decode_subtask),
      fft_subtask_(params.duration_alpha, seeds.fft_subtask),
      demod_(params.duration_alpha, seeds.demod) {
  per_bs_.reserve(num_basestations);
  for (unsigned bs = 0; bs < num_basestations; ++bs)
    per_bs_.emplace_back(static_cast<double>(lm_), lm_, params);
}

unsigned OnlineEstimators::predict_iterations(unsigned bs) const {
  if (bs >= per_bs_.size()) return lm_;
  return per_bs_[bs].predict();
}

Duration OnlineEstimators::predict_decode_at(unsigned mcs,
                                             unsigned iterations,
                                             Duration fallback) const {
  const unsigned m = std::min(mcs, phy::kMaxMcs);
  return fit_.predict_or(antennas_, phy::modulation_order(m),
                         phy::subcarrier_load(m, num_prb_),
                         static_cast<double>(iterations), fallback);
}

void OnlineEstimators::observe_decode(unsigned bs, unsigned mcs,
                                      unsigned executed_iterations,
                                      Duration decode_ns,
                                      Duration decode_subtask_ns) {
  if (bs < per_bs_.size()) per_bs_[bs].observe(executed_iterations);
  if (executed_iterations == 0) return;
  const unsigned m = std::min(mcs, phy::kMaxMcs);
  fit_.observe(antennas_, phy::modulation_order(m),
               phy::subcarrier_load(m, num_prb_),
               static_cast<double>(executed_iterations), decode_ns);
  decode_subtask_.observe(decode_subtask_ns);
}

}  // namespace rtopex::model
